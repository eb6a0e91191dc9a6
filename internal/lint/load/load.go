// Package load type-checks Go packages from source without the network or
// golang.org/x/tools: it shells out to `go list -export -deps -json`, which
// compiles every dependency into the build cache and reports the gc
// export-data file for each, then parses the target packages and checks
// them with an importer that reads those export files. It backs both
// analyzer drivers: the repo scan in internal/lint (which `make vet-smore`
// runs) and analysistest's fixture harness.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"go-arxiv/smore/internal/lint/analysis"
)

// Package is one source-checked package ready for analysis.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// listPkg is the subset of `go list -json` output load consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Packages loads, parses, and type-checks the packages matching the go
// list patterns, rooted at dir. Imports — including in-module siblings —
// resolve through build-cache export data, so the loaded set is exactly the
// matched packages, each checked from source.
func Packages(dir string, patterns ...string) ([]*Package, error) {
	byPath, targets, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, byPath)

	var out []*Package
	for _, lp := range targets {
		if len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := analysis.NewInfo()
		tc := &types.Config{Importer: imp, Sizes: types.SizesFor("gc", build.Default.GOARCH)}
		pkg, err := tc.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
		}
		out = append(out, &Package{
			ImportPath: lp.ImportPath, Fset: fset, Files: files, Pkg: pkg, Info: info,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// ExportData maps each listed import path (plus transitive deps) to its gc
// export-data file, compiling into the build cache as needed. analysistest
// uses it to resolve fixtures' std-library imports offline.
func ExportData(dir string, paths ...string) (map[string]string, error) {
	byPath, _, err := goList(dir, paths)
	if err != nil {
		return nil, err
	}
	files := make(map[string]string, len(byPath))
	for p, lp := range byPath {
		if lp.Export != "" {
			files[p] = lp.Export
		}
	}
	return files, nil
}

func goList(dir string, patterns []string) (byPath map[string]*listPkg, targets []*listPkg, err error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Name,Dir,GoFiles,Export,DepOnly,Incomplete,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	byPath = map[string]*listPkg{}
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		byPath[lp.ImportPath] = lp
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}
	return byPath, targets, nil
}

// exportImporter resolves imports through the Export files go list
// produced. The gc importer handles "unsafe" itself.
func exportImporter(fset *token.FileSet, byPath map[string]*listPkg) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		lp := byPath[path]
		if lp == nil || lp.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(lp.Export)
	})
}
