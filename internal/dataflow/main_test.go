package dataflow

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain points TMPDIR at a fresh directory for the package run and fails
// the run, listing the files, if any spill temp file survives it: every
// store the engine opens must be released on every path, error paths
// included. Spill files are named toreador-spill-*.bin (storage.spillFile).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dataflow-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Setenv("TMPDIR", dir)
	code := m.Run()
	var leaked []string
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), "toreador-spill-") {
			leaked = append(leaked, path)
		}
		return nil
	})
	if len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "spill temp files leaked by the tests:\n\t%s\n", strings.Join(leaked, "\n\t"))
		code = 1
	}
	os.RemoveAll(dir)
	os.Exit(code)
}
