package pod

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The knob census. Every exported field of a type named Config, Params
// or StreamParams in the packages below is an option someone has to
// reason about, so each must earn its place: non-test code outside the
// type's own defaults function has to set it (an assignment or a
// composite-literal key). A field nobody sets has one value and
// belongs in a constant. The root package's Config is the public
// surface — its setters are the library's users — so it is checked for
// a reader instead.
//
// The census is syntactic (go/parser, no type checking): composite
// literals are attributed by their written type; an assignment x.F = v
// by x's declaration in the same function when that is visible (a
// parameter, a literal, DefaultParams(), a field of a census type), and
// otherwise by field name alone — which can only hide a dead knob
// behind a live namesake, never fail a live one.

const modulePath = "github.com/pod-dedup/pod"

// rootDir names the root package's directory in census keys
// ("pod.Config.Verify"); every other key starts with the package's
// path in the repository ("internal/engine.Config.Threshold").
const rootDir = "pod"

var censusDirs = []string{
	rootDir, "internal/engine", "internal/icache", "internal/globalfp", "internal/bgdedup",
	"internal/server", "internal/locality", "internal/cdc",
}

var censusTypes = map[string]bool{"Config": true, "Params": true, "StreamParams": true}

// defaultsFuncs are the functions of a type's declaring file whose
// assignments fill defaults rather than choose a value — unless the
// value comes from the function's own parameters (DefaultParams(total)
// passes its caller's choice through).
var defaultsFuncs = map[string]bool{"withDefaults": true, "WithDefaults": true, "DefaultParams": true}

// unsetButKept lists the fields no non-test code sets that stay
// exported all the same, each with its reason. Most are read by bench/
// off a default-filled value; bench/ may only change in its own PR
// (DESIGN.md §3 "What bench/ pins"), and they go with it.
var unsetButKept = map[string]string{
	"internal/engine.Config.HashWorkers":     "bench/ladder.go passes it to chunk.NewHashEngine, which accepts only 1 (the default): no engine reads it, and there is no hash pool to select",
	"internal/engine.Config.Fingerprinter":   "bench/ladder.go passes it to chunk.NewHashEngine, which accepts only SyntheticFingerprinter (the default): no engine reads it, and a chunk's fingerprint is ContentID.Fingerprint, computed where the chunk is cut",
	"internal/engine.Config.Interval":        "bench/ladder.go copies it into its own icache.Params",
	"internal/engine.Config.IndexEntryBytes": "bench/ladder.go copies it into its own icache.Params",
	"internal/locality.Params.SampleShift":   "bench/ladder.go sizes its sketch with it, as engine.Base does",
}

type censusFile struct {
	dir, path string
	ast       *ast.File
	imports   map[string]string // local package name → repository dir
}

type census struct {
	files  []*censusFile
	types  map[string]bool     // "dir.Type"
	fields map[string]string   // "dir.Type.Field" → declaring file
	nested map[string]string   // "dir.Type.Field" → census type of that field
	byName map[string][]string // "Field" → every field key of that name
	set    map[string]bool     // field keys some non-defaults code sets
}

func loadCensus(t *testing.T) *census {
	t.Helper()
	c := &census{types: map[string]bool{}, fields: map[string]string{}, nested: map[string]string{},
		byName: map[string][]string{}, set: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		cf := &censusFile{dir: filepath.ToSlash(filepath.Dir(path)), path: filepath.ToSlash(path), ast: f, imports: map[string]string{}}
		if cf.dir == "." {
			cf.dir = rootDir
		}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(p, modulePath) {
				continue
			}
			dir := strings.TrimPrefix(strings.TrimPrefix(p, modulePath), "/")
			if dir == "" {
				dir = rootDir
			}
			name := dir[strings.LastIndex(dir, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			cf.imports[name] = dir
		}
		c.files = append(c.files, cf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	inCensus := map[string]bool{}
	for _, d := range censusDirs {
		inCensus[d] = true
	}
	// pass 1: the census types' names, so pass 2 can resolve field types
	for _, cf := range c.files {
		if !inCensus[cf.dir] {
			continue
		}
		cf.eachStruct(func(name string, st *ast.StructType) {
			c.types[cf.dir+"."+name] = true
		})
	}
	for _, cf := range c.files {
		if !inCensus[cf.dir] {
			continue
		}
		cf.eachStruct(func(name string, st *ast.StructType) {
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					if !id.IsExported() {
						continue
					}
					key := cf.dir + "." + name + "." + id.Name
					c.fields[key] = cf.path
					c.byName[id.Name] = append(c.byName[id.Name], key)
					if ft := c.typeName(cf, fl.Type); ft != "" {
						c.nested[key] = ft
					}
				}
			}
		})
	}
	return c
}

func (cf *censusFile) eachStruct(fn func(name string, st *ast.StructType)) {
	for _, decl := range cf.ast.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, sp := range gd.Specs {
			ts := sp.(*ast.TypeSpec)
			if st, ok := ts.Type.(*ast.StructType); ok && censusTypes[ts.Name.Name] {
				fn(ts.Name.Name, st)
			}
		}
	}
}

// typeName resolves a written type to a census type ("dir.Type"), or "".
func (c *census) typeName(cf *censusFile, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return c.typeName(cf, e.X)
	case *ast.Ident:
		if c.types[cf.dir+"."+e.Name] {
			return cf.dir + "." + e.Name
		}
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok {
			if c.types[cf.imports[pkg.Name]+"."+e.Sel.Name] {
				return cf.imports[pkg.Name] + "." + e.Sel.Name
			}
		}
	}
	return ""
}

// exprType infers the census type of an expression from what one
// function's syntax shows, or "".
func (c *census) exprType(cf *censusFile, env map[string]string, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.exprType(cf, env, e.X)
	case *ast.StarExpr:
		return c.exprType(cf, env, e.X)
	case *ast.UnaryExpr:
		return c.exprType(cf, env, e.X)
	case *ast.Ident:
		return env[e.Name]
	case *ast.CompositeLit:
		if e.Type != nil {
			return c.typeName(cf, e.Type)
		}
	case *ast.CallExpr:
		switch fun := e.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "DefaultParams" {
				return c.typeName(cf, &ast.Ident{Name: "Params"})
			}
		case *ast.SelectorExpr:
			if pkg, ok := fun.X.(*ast.Ident); ok && fun.Sel.Name == "DefaultParams" {
				return c.typeName(cf, &ast.SelectorExpr{X: pkg, Sel: &ast.Ident{Name: "Params"}})
			}
			if defaultsFuncs[fun.Sel.Name] {
				return c.exprType(cf, env, fun.X)
			}
		}
	case *ast.SelectorExpr:
		if outer := c.exprType(cf, env, e.X); outer != "" {
			return c.nested[outer+"."+e.Sel.Name]
		}
		// x.Streams, b.Cfg.Chunking: a census-typed field known by name
		found := ""
		for _, key := range c.byName[e.Sel.Name] {
			if n := c.nested[key]; n != "" && (found == "" || found == n) {
				found = n
			} else if n != "" {
				return ""
			}
		}
		return found
	}
	return ""
}

// scanFunc records every field set in one function body (or one
// package-level initialiser, fn == "").
func (c *census) scanFunc(cf *censusFile, fn string, params *ast.FieldList, recv *ast.FieldList, body ast.Node) {
	env := map[string]string{}
	for _, fl := range []*ast.FieldList{recv, params} {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			for _, id := range f.Names {
				env[id.Name] = c.typeName(cf, f.Type)
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool { // declarations first: the flat scope of one function
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) >= 1 && len(n.Rhs) >= 1 {
				if id, ok := n.Lhs[0].(*ast.Ident); ok && env[id.Name] == "" {
					env[id.Name] = c.exprType(cf, env, n.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if n.Type != nil {
					env[id.Name] = c.typeName(cf, n.Type)
				} else if i < len(n.Values) {
					env[id.Name] = c.exprType(cf, env, n.Values[i])
				}
			}
		}
		return true
	})
	paramNames := map[string]bool{}
	if params != nil {
		for _, f := range params.List {
			for _, id := range f.Names {
				paramNames[id.Name] = true
			}
		}
	}
	mark := func(key string, value ast.Expr) {
		file, ok := c.fields[key]
		if !ok {
			return
		}
		if file == cf.path && defaultsFuncs[fn] {
			passed := false
			ast.Inspect(value, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && paramNames[id.Name] {
					passed = true
				}
				return !passed
			})
			if !passed {
				return
			}
		}
		c.set[key] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if tn := c.exprType(cf, env, n); tn != "" {
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							mark(tn+"."+id.Name, kv.Value)
						}
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				value := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					value = n.Rhs[i]
				}
				if tn := c.exprType(cf, env, sel.X); tn != "" {
					mark(tn+"."+sel.Sel.Name, value)
				} else {
					for _, key := range c.byName[sel.Sel.Name] {
						mark(key, value)
					}
				}
			}
		}
		return true
	})
}

func (c *census) scan() {
	for _, cf := range c.files {
		for _, decl := range cf.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					c.scanFunc(cf, d.Name.Name, d.Type.Params, d.Recv, d.Body)
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					c.scanFunc(cf, "", nil, nil, d)
				}
			}
		}
	}
}

// rootReads lists the root Config's fields some expression in the root
// package reads (a selector that is not an assignment's left side).
func (c *census) rootReads() map[string]bool {
	reads := map[string]bool{}
	for _, cf := range c.files {
		if cf.dir != rootDir {
			continue
		}
		written := map[*ast.SelectorExpr]bool{}
		ast.Inspect(cf.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				}
			case *ast.SelectorExpr:
				if !written[n] {
					reads[rootDir+".Config."+n.Sel.Name] = true
				}
			}
			return true
		})
	}
	return reads
}

func TestKnobCensus(t *testing.T) {
	c := loadCensus(t)
	c.scan()
	reads := c.rootReads()
	var keys []string
	for key := range c.fields {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		why, kept := unsetButKept[key]
		switch {
		case strings.HasPrefix(key, rootDir+"."):
			if !reads[key] {
				t.Errorf("%s is read by nothing in the root package", key)
			}
		case c.set[key] && kept:
			t.Errorf("%s is set by non-test code now; drop it from unsetButKept", key)
		case !c.set[key] && !kept:
			t.Errorf("%s has no setter outside its defaults function and tests: one value, make it a constant", key)
		case kept:
			t.Logf("%s: unset, kept because %s", key, why)
		}
	}
	t.Logf("knob census: %d exported Config/Params/StreamParams fields", len(keys))
}
