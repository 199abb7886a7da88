package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkRNGShare flags RNG streams shared across goroutine boundaries in
// the deterministic packages. A *rand.Rand is a mutable cursor: two
// goroutines drawing from one stream produce draw sequences that depend on
// scheduling, which breaks fixed-seed bit-identity on exactly the runs
// where -race stays silent (draws that interleave without a data-race
// window, or paths the race tier never executes). The sanctioned pattern
// is the one the repo already uses everywhere: derive independent child
// seeds up front (rngutil.Seeder) and hand each goroutine its own stream.
//
// Three sharing shapes are reported, per enclosing function:
//
//   - the same stream captured by two or more `go` statements;
//   - a `go` statement inside a loop capturing a stream declared outside
//     the loop (one cursor, N spawns);
//   - a stream captured by a `go` statement and also used outside any
//     goroutine in the same function (spawner and worker interleave).
//
// A func-literal body passed to par.For counts as a goroutine spawned in a
// loop: every worker runs it, so a stream it captures from outside the
// call is one cursor shared by all of them.
//
// A stream stored into a struct that is then handed to goroutines is
// tracked one alias hop deep: `w := worker{rng: rng}; go w.run()` counts
// as the goroutine capturing rng, while the binding itself does not count
// as a spawner-side use. Dynamic flow beyond one hop is out of scope —
// the goroutine/ordered-helper discipline bounds how much can hide there.
func checkRNGShare(prog *Program, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pkg.Syntax {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, rngShareInFunc(prog, pkg, fd)...)
		}
	}
	return diags
}

// rngStream reports whether t is an RNG stream type: *rand.Rand or
// rand.Source (math/rand or math/rand/v2), or any named type from the
// module's rngutil package (Seeder and friends), possibly behind a pointer.
func rngStream(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "math/rand", "math/rand/v2":
		return named.Obj().Name() == "Rand" || named.Obj().Name() == "Source"
	case "e2clab/internal/rngutil":
		return true
	}
	return false
}

// streamKey identifies one RNG stream inside a function: a root variable
// plus the selector path reaching the stream ("" for the variable itself).
type streamKey struct {
	root types.Object
	path string
}

func (k streamKey) name() string {
	if k.path == "" {
		return k.root.Name()
	}
	return k.root.Name() + "." + k.path
}

// goSpawn is one `go` statement plus the innermost for/range enclosing it
// within the function (nil when not spawned from a loop), or one par.For
// body: the func literal, with the par.For call as its loop.
type goSpawn struct {
	stmt   ast.Node
	loop   ast.Node
	parFor bool
}

func rngShareInFunc(prog *Program, pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	// Collect the go statements with their enclosing loops.
	var gos []goSpawn
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			var loop ast.Node
			for i := len(stack) - 1; i >= 0 && loop == nil; i-- {
				switch stack[i].(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					loop = stack[i]
				}
			}
			gos = append(gos, goSpawn{stmt: x, loop: loop})
		case *ast.CallExpr:
			if !isParFor(pkg, x) || len(x.Args) != 3 {
				break
			}
			if body, ok := ast.Unparen(x.Args[2]).(*ast.FuncLit); ok {
				gos = append(gos, goSpawn{stmt: body, loop: x, parFor: true})
			}
		}
		stack = append(stack, n)
		return true
	})
	if len(gos) == 0 {
		return nil
	}
	spawnOf := func(n ast.Node) *goSpawn {
		for i := range gos {
			g := &gos[i]
			if g.stmt.Pos() <= n.Pos() && n.End() <= g.stmt.End() {
				return g
			}
		}
		return nil
	}

	// keyOf resolves a stream-typed expression to its (root, path) key.
	keyOf := func(e ast.Expr) (streamKey, bool) {
		if !rngStream(pkg.Info.TypeOf(e)) {
			return streamKey{}, false
		}
		path := ""
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				obj := pkg.Info.Uses[x]
				if obj == nil {
					obj = pkg.Info.Defs[x]
				}
				if obj == nil {
					return streamKey{}, false
				}
				return streamKey{root: obj, path: path}, true
			case *ast.SelectorExpr:
				if path == "" {
					path = x.Sel.Name
				} else {
					path = x.Sel.Name + "." + path
				}
				e = x.X
			default:
				return streamKey{}, false
			}
		}
	}

	// Alias pass. Binding a stream into a variable's field or a composite
	// literal makes that variable carry the stream: a goroutine referencing
	// the carrier captures the stream. The binding expression itself is
	// recorded so the spawner-use rule does not count pure handoffs.
	alias := map[types.Object][]streamKey{}
	binding := map[ast.Expr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			root := rootObj(pkg, as.Lhs[i])
			if root == nil {
				continue
			}
			// Direct store: w.rng = rng (only field stores alias; `r2 := rng`
			// keeps r2 as its own reference, resolved by keyOf directly).
			if k, ok := keyOf(rhs); ok {
				if _, isSel := ast.Unparen(as.Lhs[i]).(*ast.SelectorExpr); isSel {
					alias[root] = append(alias[root], k)
					binding[rhs] = true
				}
				continue
			}
			// Literal store: w := worker{rng: rng} or &worker{rng: rng}.
			lit, ok := ast.Unparen(stripAddr(rhs)).(*ast.CompositeLit)
			if !ok {
				continue
			}
			for _, el := range lit.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if k, ok := keyOf(v); ok {
					alias[root] = append(alias[root], k)
					binding[v] = true
				}
			}
		}
		return true
	})

	// Reference pass: which go statements capture each stream, and where
	// each stream is used outside every goroutine.
	var order []streamKey
	captures := map[streamKey][]*goSpawn{}
	outside := map[streamKey]ast.Expr{}
	addCapture := func(k streamKey, g *goSpawn) {
		for _, have := range captures[k] {
			if have == g {
				return
			}
		}
		if len(captures[k]) == 0 {
			order = append(order, k)
		}
		captures[k] = append(captures[k], g)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if k, isStream := keyOf(e); isStream {
			// The defining occurrence (`rng := ...`) is not a use.
			if id, isIdent := ast.Unparen(e).(*ast.Ident); isIdent && pkg.Info.Defs[id] != nil {
				return false
			}
			// w.rng reaches the stream bound into carrier w, so credit
			// both the field key and the underlying streams.
			keys := append([]streamKey{k}, alias[k.root]...)
			if g := spawnOf(e); g != nil {
				for _, ak := range keys {
					addCapture(ak, g)
				}
			} else if !binding[e] {
				for _, ak := range keys {
					if _, have := outside[ak]; !have {
						outside[ak] = e
					}
				}
			}
			return false // the full chain is the canonical reference
		}
		// A carrier variable referenced inside a go statement pulls in the
		// streams bound into it.
		if id, isIdent := e.(*ast.Ident); isIdent {
			if obj := pkg.Info.Uses[id]; obj != nil {
				if streams, isCarrier := alias[obj]; isCarrier {
					if g := spawnOf(e); g != nil {
						for _, k := range streams {
							addCapture(k, g)
						}
					}
				}
			}
		}
		return true
	})

	// One finding per offending position: a carrier field key and its
	// underlying stream key describe the same sharing, so the first
	// (declaration-ordered) key reports it.
	var diags []Diagnostic
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			diags = append(diags, diag(prog, pos, "rngshare", format, args...))
		}
	}
	for _, k := range order {
		refs := captures[k]
		switch {
		// One cursor shared by every worker of a par.For.
		case refs[0].parFor && k.root.Pos() < refs[0].loop.Pos():
			report(refs[0].stmt.Pos(),
				"par.For body captures RNG stream %s declared outside the call: every worker shares one draw cursor; derive a child stream per index (rngutil.Seeder)", k.name())
		// One cursor spawned N times from a loop.
		case refs[0].loop != nil && k.root.Pos() < refs[0].loop.Pos():
			report(refs[0].stmt.Pos(),
				"goroutine spawned in a loop captures RNG stream %s declared outside the loop: every spawn shares one draw cursor; derive a child stream per iteration (rngutil.Seeder)", k.name())
		// Same cursor in two or more go statements.
		case len(refs) > 1:
			first := prog.Fset.Position(refs[0].stmt.Pos())
			report(refs[1].stmt.Pos(),
				"RNG stream %s is also captured by the goroutine spawned at line %d: concurrent draws make the sequence schedule-dependent; derive independent child streams instead", k.name(), first.Line)
		// Spawner and worker share the cursor.
		default:
			if use, ok := outside[k]; ok {
				gpos := prog.Fset.Position(refs[0].stmt.Pos())
				report(use.Pos(),
					"RNG stream %s is drawn on here and also captured by the goroutine spawned at line %d: spawner and worker draws interleave nondeterministically; give the goroutine its own derived stream", k.name(), gpos.Line)
			}
		}
	}
	return diags
}

// stripAddr unwraps a leading & so `w := &worker{...}` aliases like the
// value form.
func stripAddr(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return e
}
