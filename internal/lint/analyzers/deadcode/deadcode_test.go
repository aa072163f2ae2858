package deadcode

import (
	"testing"

	"repro/internal/lint/analysistest"
)

func TestDeadcode(t *testing.T) {
	analysistest.Run(t, "testdata", Analyzer, "deadcode", "deadcode_clean")
}
