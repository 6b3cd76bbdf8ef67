package pod

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestInternalDoesNotImportRoot: the root package is the public facade
// over internal/, so the imports run one way. A package under internal/
// that imports the module root — in its code or its tests — ties the
// engine layers to the facade they serve; what such a package wants
// from the root (a scheme's name, a platform default) belongs below it.
func TestInternalDoesNotImportRoot(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p == modulePath {
				t.Errorf("%s imports the module root %s", fset.Position(im.Pos()), modulePath)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
