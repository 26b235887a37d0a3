// Command tool is an entry point: its main is a root.
package main

import "gaea/internal/util"

var table = map[string]func(){"init": util.FromVar}

func main() {
	table["init"]()
	helper()
}

func helper() {}

func orphan() {} // want `main.orphan is reached by no entry point`
