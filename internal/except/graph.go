package except

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Graph is an immutable exception graph G(E, R): nodes are exceptions, a
// directed edge (parent, child) means parent covers child. A valid graph is
// acyclic and has exactly one root (in-degree zero) from which every node is
// reachable — the universal exception. Build one with a Builder, Parse, or
// GenerateFull.
//
// Graphs are safe for concurrent use after construction.
type Graph struct {
	name  string
	idx   map[ID]int
	nodes []gnode
	root  int
	words int // bitset words per node
}

type gnode struct {
	id       ID
	children []int
	parents  []int
	level    int      // primitives are level 0; parent = 1 + max(children)
	covers   []uint64 // bitset over node indices: descendants ∪ self
	size     int      // popcount of covers ("subtree size")
}

// Builder accumulates nodes and cover edges for a Graph. The zero value is
// not usable; construct with NewBuilder. Builder is not safe for concurrent
// use.
type Builder struct {
	name     string
	order    []ID
	known    map[ID]bool
	edges    map[ID][]ID
	edgeSet  map[[2]ID]bool
	autoRoot bool
	firstErr error
}

// NewBuilder returns a Builder for a graph with the given name (typically
// the owning CA action's name).
func NewBuilder(name string) *Builder {
	return &Builder{
		name:    name,
		known:   make(map[ID]bool),
		edges:   make(map[ID][]ID),
		edgeSet: make(map[[2]ID]bool),
	}
}

func (b *Builder) note(id ID) {
	if id == None || id == Undo || id == Failure {
		if b.firstErr == nil {
			b.firstErr = fmt.Errorf("%w: %q", ErrReservedID, id)
		}
		return
	}
	if !b.known[id] {
		b.known[id] = true
		b.order = append(b.order, id)
	}
}

// Node declares an exception with no cover relationships yet (a primitive,
// unless later used as a parent).
func (b *Builder) Node(id ID) *Builder {
	b.note(id)
	return b
}

// Cover declares that parent covers each child: a handler for parent is able
// to handle any of the children (paper's "er: e1, e2, ..., ek" form).
func (b *Builder) Cover(parent ID, children ...ID) *Builder {
	b.note(parent)
	for _, c := range children {
		b.note(c)
		if c == parent {
			if b.firstErr == nil {
				b.firstErr = fmt.Errorf("%w: %q", ErrSelfEdge, parent)
			}
			continue
		}
		key := [2]ID{parent, c}
		if b.edgeSet[key] {
			if b.firstErr == nil {
				b.firstErr = fmt.Errorf("%w: %q -> %q", ErrDuplicateEdge, parent, c)
			}
			continue
		}
		b.edgeSet[key] = true
		b.edges[parent] = append(b.edges[parent], c)
	}
	return b
}

// WithUniversal makes Build add a synthetic Universal root covering every
// otherwise-uncovered node, so callers can declare only the
// application-specific part of the hierarchy.
func (b *Builder) WithUniversal() *Builder {
	b.autoRoot = true
	return b
}

// Build validates the accumulated structure and returns the immutable Graph.
func (b *Builder) Build() (*Graph, error) {
	if b.firstErr != nil {
		return nil, b.firstErr
	}
	if len(b.order) == 0 {
		return nil, ErrEmptyGraph
	}

	order := append([]ID(nil), b.order...)
	edges := make(map[ID][]ID, len(b.edges))
	for p, cs := range b.edges {
		edges[p] = append([]ID(nil), cs...)
	}

	if b.autoRoot {
		hasParent := make(map[ID]bool)
		for _, cs := range edges {
			for _, c := range cs {
				hasParent[c] = true
			}
		}
		var tops []ID
		for _, id := range order {
			if !hasParent[id] && id != Universal {
				tops = append(tops, id)
			}
		}
		if _, ok := b.known[Universal]; !ok {
			order = append(order, Universal)
		}
		for _, top := range tops {
			if !b.edgeSet[[2]ID{Universal, top}] {
				edges[Universal] = append(edges[Universal], top)
			}
		}
	}

	g := &Graph{name: b.name, idx: make(map[ID]int, len(order))}
	for i, id := range order {
		g.idx[id] = i
		g.nodes = append(g.nodes, gnode{id: id})
	}
	for p, cs := range edges {
		pi := g.idx[p]
		for _, c := range cs {
			ci := g.idx[c]
			g.nodes[pi].children = append(g.nodes[pi].children, ci)
			g.nodes[ci].parents = append(g.nodes[ci].parents, pi)
		}
	}
	for i := range g.nodes {
		sort.Ints(g.nodes[i].children)
		sort.Ints(g.nodes[i].parents)
	}

	if err := g.finish(); err != nil {
		return nil, err
	}
	return g, nil
}

// finish computes topological levels and cover bitsets, validating acyclicity
// and the single-covering-root property.
func (g *Graph) finish() error {
	n := len(g.nodes)
	g.words = (n + 63) / 64

	// Topological sort (children before parents) to detect cycles and to
	// compute levels and cover sets in one pass.
	indeg := make([]int, n) // number of unprocessed children
	for i := range g.nodes {
		indeg[i] = len(g.nodes[i].children)
	}
	queue := make([]int, 0, n)
	for i := range g.nodes {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	processed := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		processed++
		node := &g.nodes[i]
		node.covers = make([]uint64, g.words)
		node.covers[i/64] |= 1 << (i % 64)
		node.level = 0
		for _, c := range node.children {
			child := &g.nodes[c]
			for w := range node.covers {
				node.covers[w] |= child.covers[w]
			}
			if child.level+1 > node.level {
				node.level = child.level + 1
			}
		}
		for w := range node.covers {
			node.size += bits.OnesCount64(node.covers[w])
		}
		for _, p := range node.parents {
			indeg[p]--
			if indeg[p] == 0 {
				queue = append(queue, p)
			}
		}
	}
	if processed != n {
		return fmt.Errorf("%w in graph %q", ErrCycle, g.name)
	}

	g.root = -1
	for i := range g.nodes {
		if len(g.nodes[i].parents) == 0 {
			if g.root >= 0 {
				return fmt.Errorf("%w: %q and %q", ErrMultipleRoots,
					g.nodes[g.root].id, g.nodes[i].id)
			}
			g.root = i
		}
	}
	if g.root < 0 {
		return fmt.Errorf("%w in graph %q", ErrNoRoot, g.name)
	}
	if g.nodes[g.root].size != n {
		for i := range g.nodes {
			if !g.coversIdx(g.root, i) {
				return fmt.Errorf("%w: %q", ErrUnreachable, g.nodes[i].id)
			}
		}
	}
	return nil
}

func (g *Graph) coversIdx(a, b int) bool {
	return g.nodes[a].covers[b/64]&(1<<(b%64)) != 0
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// Root returns the universal (root) exception of the graph.
func (g *Graph) Root() ID { return g.nodes[g.root].id }

// Has reports whether id is declared in the graph.
func (g *Graph) Has(id ID) bool {
	_, ok := g.idx[id]
	return ok
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Nodes returns all exception IDs in declaration order.
func (g *Graph) Nodes() []ID {
	out := make([]ID, len(g.nodes))
	for i := range g.nodes {
		out[i] = g.nodes[i].id
	}
	return out
}

// Primitives returns the exceptions that cover nothing (out-degree zero).
func (g *Graph) Primitives() []ID {
	var out []ID
	for i := range g.nodes {
		if len(g.nodes[i].children) == 0 {
			out = append(out, g.nodes[i].id)
		}
	}
	return out
}

// Level returns a node's level: primitives are level 0 and a parent is one
// above its highest child. Unknown IDs report -1.
func (g *Graph) Level(id ID) int {
	i, ok := g.idx[id]
	if !ok {
		return -1
	}
	return g.nodes[i].level
}

// Children returns the direct low-level nodes of id.
func (g *Graph) Children(id ID) []ID {
	i, ok := g.idx[id]
	if !ok {
		return nil
	}
	out := make([]ID, len(g.nodes[i].children))
	for k, c := range g.nodes[i].children {
		out[k] = g.nodes[c].id
	}
	return out
}

// CoverSize returns the number of exceptions covered by id (including
// itself) — the paper's "subtree size". Unknown IDs report 0.
func (g *Graph) CoverSize(id ID) int {
	i, ok := g.idx[id]
	if !ok {
		return 0
	}
	return g.nodes[i].size
}

// Covers reports whether exception a covers exception b (b is reachable from
// a, or a == b).
func (g *Graph) Covers(a, b ID) bool {
	ai, ok := g.idx[a]
	if !ok {
		return false
	}
	bi, ok := g.idx[b]
	if !ok {
		return false
	}
	return g.coversIdx(ai, bi)
}

// Resolve returns the resolving exception for the given concurrently raised
// exceptions: the node with the smallest cover set that covers all of them
// (ties broken by lower level, then by ID, for determinism). Exceptions not
// declared in the graph are "undefined" and, per §3.2, force resolution to
// the universal exception. Resolving an empty set is an error.
func (g *Graph) Resolve(raised ...ID) (ID, error) {
	if len(raised) == 0 {
		return None, ErrNothingRaised
	}
	var buf [4]uint64
	need := g.needSet(buf[:])
	for _, id := range raised {
		if !g.need(need, id) {
			return g.Root(), nil
		}
	}
	return g.cover(need), nil
}

// ResolveRaised is Resolve applied to raised-exception instances.
func (g *Graph) ResolveRaised(raised []Raised) (ID, error) {
	if len(raised) == 0 {
		return None, ErrNothingRaised
	}
	var buf [4]uint64
	need := g.needSet(buf[:])
	for _, r := range raised {
		if !g.need(need, r.ID) {
			return g.Root(), nil
		}
	}
	return g.cover(need), nil
}

// needSet returns an empty bitset over the graph's nodes, in buf when it is
// large enough, so resolving in a graph of up to 64·len(buf) nodes
// allocates nothing.
func (g *Graph) needSet(buf []uint64) []uint64 {
	if g.words <= len(buf) {
		return buf[:g.words]
	}
	return make([]uint64, g.words)
}

// need adds id to the bitset, reporting false for an undeclared exception.
func (g *Graph) need(set []uint64, id ID) bool {
	i, ok := g.idx[id]
	if ok {
		set[i/64] |= 1 << (i % 64)
	}
	return ok
}

// cover returns the node with the smallest cover set covering every member
// of need.
func (g *Graph) cover(need []uint64) ID {
	best := -1
	for i := range g.nodes {
		node := &g.nodes[i]
		covered := true
		for w := range need {
			if need[w]&^node.covers[w] != 0 {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		if best < 0 || betterCover(node, &g.nodes[best]) {
			best = i
		}
	}
	if best < 0 {
		// Unreachable for valid graphs (the root covers everything),
		// but keep a defensive answer.
		return g.Root()
	}
	return g.nodes[best].id
}

func betterCover(a, b *gnode) bool {
	if a.size != b.size {
		return a.size < b.size
	}
	if a.level != b.level {
		return a.level < b.level
	}
	return a.id < b.id
}

// String renders the graph in the parseable text format, children sorted,
// parents ordered root-last (matching Parse's accepted input).
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s\n", g.name)
	type line struct {
		level int
		text  string
	}
	var lines []line
	for i := range g.nodes {
		node := &g.nodes[i]
		if len(node.children) == 0 {
			continue
		}
		kids := make([]string, len(node.children))
		for k, c := range node.children {
			kids[k] = string(g.nodes[c].id)
		}
		sort.Strings(kids)
		lines = append(lines, line{node.level,
			fmt.Sprintf("%s: %s", node.id, strings.Join(kids, ", "))})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].level != lines[j].level {
			return lines[i].level < lines[j].level
		}
		return lines[i].text < lines[j].text
	})
	if len(lines) == 0 {
		// A single-node graph has no cover lines; emit the lone root as a
		// bare node declaration so String round-trips through Parse.
		lines = append(lines, line{0, string(g.nodes[g.root].id)})
	}
	for _, l := range lines {
		b.WriteString(l.text)
		b.WriteByte('\n')
	}
	return b.String()
}
