// Package client is the fixture module's other API package.
package client

import "gaea/internal/util"

// Dial is a root.
func Dial() *util.Buffer { return util.NewBuffer() }
