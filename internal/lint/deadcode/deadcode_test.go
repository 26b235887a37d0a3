package deadcode_test

import (
	"testing"

	"gaea/internal/lint/deadcode"
	"gaea/internal/lint/linttest"
)

func TestDeadcode(t *testing.T) {
	linttest.Run(t, "testdata", deadcode.Analyzer, "gaea", "gaea/client", "gaea/cmd/tool")
}
