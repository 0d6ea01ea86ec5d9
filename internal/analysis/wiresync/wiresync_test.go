package wiresync_test

import (
	"testing"

	"github.com/paris-kv/paris/internal/analysis/analysistest"
	"github.com/paris-kv/paris/internal/analysis/wiresync"
)

func TestWireSync(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), wiresync.Analyzer, "wirebad", "wiregood", "wiretest")
}
