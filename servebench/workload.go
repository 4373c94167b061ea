package main

import (
	"fmt"
	"math/rand"
	"sync"

	"paxq"
	"paxq/internal/fragment"
	"paxq/internal/pax"
	"paxq/internal/xmltree"
)

// The paper's Fig. 7 queries.
const (
	q1 = "/sites/site/people/person"
	q2 = "/sites/site/open_auctions//annotation"
	q3 = `/sites/site/people/person[profile/age > 20 and address/country = "US"]/creditcard`
	q4 = `/sites//people/person[profile/age > 20 and address/country = "US"]/creditcard`
)

// cutPaths cut every XMark site into its people, open-auction and
// closed-auction regions: with 4 XMark sites, 13 fragments.
var cutPaths = []string{"/sites/site/people", "/sites/site/open_auctions", "/sites/site/closed_auctions"}

const (
	xmarkSites  = 4 // XMark "site" subtrees per document
	deploySites = 2 // paxq sites the fragments are spread over
)

// workload is one named traffic mix over one deployment.
type workload struct {
	name    string
	mb      float64 // generated document size
	clients int     // closed-loop clients
	// stream returns client c's operation source for a run seeded with
	// seed; seen is shared by every stream of one run.
	stream func(seed int64, c int, seen *seenSet) opSource
	// check is how answers are checked while the window runs.
	check checkMode
	// segments splits the measured window; the benchmark checks answers
	// at the quiescent point after each segment (edit workloads only).
	segments int
	// warm lists the queries run once, answer-checked, before timing.
	warm func(seed int64) []op
}

var workloads = map[string]*workload{
	"xmark-hot": {
		name: "xmark-hot", mb: 2, clients: 2,
		stream:   func(seed int64, c int, _ *seenSet) opSource { return newHotStream(streamSeed(seed, c)) },
		check:    checkInline,
		segments: 1,
		warm:     func(int64) []op { return hotPairs() },
	},
	"xmark-cold": {
		name: "xmark-cold", mb: 4, clients: 1,
		stream:   func(seed int64, c int, seen *seenSet) opSource { return newColdStream(streamSeed(seed, c), seen) },
		check:    checkDeferred,
		segments: 1,
		// Warm-up draws from its own seed so no timed query repeats it.
		warm: func(seed int64) []op {
			s := newColdStream(streamSeed(seed, 1000), newSeenSet())
			out := make([]op, 4)
			for i := range out {
				out[i] = s.next()
			}
			return out
		},
	},
	"xmark-edit": {
		name: "xmark-edit", mb: 2, clients: 2,
		stream:   func(seed int64, c int, _ *seenSet) opSource { return newEditStream(streamSeed(seed, c)) },
		check:    checkBound,
		segments: 5,
		warm:     func(int64) []op { return qualifiedPairs() },
	},
}

func streamSeed(seed int64, c int) int64 { return seed*7919 + int64(c)*104729 + 1 }

type opKind uint8

const (
	opQuery opKind = iota
	opEdit
)

// op is one client request. An edit op carries no target: the edit itself
// is drawn from the deployment's edit generator when it is issued, so the
// k-th edit of a run is the same whatever client issues it.
type op struct {
	kind  opKind
	query string
	alg   pax.Algorithm
	// class names the slot of the stream's round the op fills; latency
	// medians are taken per class.
	class string
}

func (o op) String() string {
	if o.kind == opEdit {
		return "edit"
	}
	return fmt.Sprintf("%v %s", o.alg, o.query)
}

type opSource interface{ next() op }

func hotPairs() []op {
	var out []op
	for _, q := range []string{q1, q2, q3, q4} {
		for _, alg := range []pax.Algorithm{pax.PaX2, pax.PaX3} {
			out = append(out, op{kind: opQuery, query: q, alg: alg, class: fmt.Sprintf("%v %s", alg, q)})
		}
	}
	return out
}

func qualifiedPairs() []op {
	var out []op
	for _, q := range []string{q3, q4} {
		for _, alg := range []pax.Algorithm{pax.PaX2, pax.PaX3} {
			out = append(out, op{kind: opQuery, query: q, alg: alg, class: fmt.Sprintf("%v %s", alg, q)})
		}
	}
	return out
}

// hotStream repeats the 8 Fig. 7 pairs, each round in a fresh seeded order,
// so every window of 8 ops is the same mix.
type hotStream struct {
	r     *rand.Rand
	pairs []op
	i     int
}

func newHotStream(seed int64) *hotStream {
	return &hotStream{r: rand.New(rand.NewSource(seed)), pairs: hotPairs()}
}

func (s *hotStream) next() op {
	if s.i == 0 {
		s.r.Shuffle(len(s.pairs), func(i, j int) { s.pairs[i], s.pairs[j] = s.pairs[j], s.pairs[i] })
	}
	o := s.pairs[s.i]
	s.i = (s.i + 1) % len(s.pairs)
	return o
}

// seenSet records the queries a run has drawn, across its streams.
type seenSet struct {
	mu sync.Mutex
	m  map[string]bool
}

func newSeenSet() *seenSet { return &seenSet{m: make(map[string]bool)} }

// add records q and reports whether it was new.
func (s *seenSet) add(q string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[q] {
		return false
	}
	s.m[q] = true
	return true
}

// coldStream draws qualified queries from templates over XMark labels,
// none drawn before in the run, so no plan or Stage-1 cache entry is ever
// reused. A query's class is its region (people or auctions), its spine
// (one the annotations prune to the region's fragments, or a // spine that
// leaves every fragment relevant) and its algorithm. Each round of 8
// queries holds every class once in a seeded order, and each class cycles
// through its template and and/or variants, so every round is the same
// mix; only the constants are free.
type coldStream struct {
	r       *rand.Rand
	seen    *seenSet
	classes []int
	uses    [coldClasses]int
	i       int
}

const coldClasses = 8 // 2 regions × 2 spine kinds × 2 algorithms

func newColdStream(seed int64, seen *seenSet) *coldStream {
	s := &coldStream{r: rand.New(rand.NewSource(seed)), seen: seen, classes: make([]int, coldClasses)}
	for i := range s.classes {
		s.classes[i] = i
	}
	return s
}

var (
	// Each of these is 10% of XMark's people ("US" is 40%), so a query's
	// selectivity does not hinge on the country drawn.
	coldCountries = []string{"Canada", "Germany", "Japan", "Brazil", "India", "France"}
	coldCmp       = []string{">", "<", ">=", "<="}
)

func (s *coldStream) next() op {
	if s.i == 0 {
		s.r.Shuffle(len(s.classes), func(i, j int) { s.classes[i], s.classes[j] = s.classes[j], s.classes[i] })
	}
	c := s.classes[s.i]
	s.i = (s.i + 1) % len(s.classes)
	people, pruned := c&1 == 0, c&2 == 0
	alg := pax.PaX2
	if c&4 != 0 {
		alg = pax.PaX3
	}
	class := fmt.Sprintf("%v people=%v pruned=%v", alg, people, pruned)
	for {
		variant := s.uses[c] % 4
		s.uses[c]++
		if q := s.template(people, pruned, variant); s.seen.add(q) {
			return op{kind: opQuery, query: q, alg: alg, class: class}
		}
	}
}

// template renders one query of a class with fresh seeded constants.
// Variant bit 0 picks the template, bit 1 the and/or (or =/!=) form.
func (s *coldStream) template(people, pruned bool, variant int) string {
	r := s.r
	pick := func(xs []string) string { return xs[r.Intn(len(xs))] }
	spine := "/sites/site/"
	if !pruned {
		spine = []string{"//", "/sites//"}[r.Intn(2)]
	}
	conj, eq := "and", "="
	if variant&2 != 0 {
		conj, eq = "or", "!="
	}
	switch {
	case people && variant&1 == 0:
		return fmt.Sprintf(`%speople/person[profile/age %s %d %s address/country = "%s"]/name`,
			spine, pick(coldCmp), 30+r.Intn(23), conj, pick(coldCountries))
	case people:
		return fmt.Sprintf(`%speople/person[not(profile/age %s %d) and address/country %s "%s"]/name`,
			spine, pick(coldCmp), 30+r.Intn(23), eq, pick(coldCountries))
	case variant&1 == 0:
		return fmt.Sprintf(`%sopen_auctions/open_auction[initial %s %d.%02d %s quantity %s %d]/current`,
			spine, pick(coldCmp), 60+r.Intn(90), r.Intn(100), conj, pick(coldCmp), 2+r.Intn(3))
	default:
		return fmt.Sprintf(`%sclosed_auctions/closed_auction[price %s %d.%02d %s not(quantity %s %d)]/price`,
			spine, pick(coldCmp), 150+r.Intn(210), r.Intn(100), conj, pick(coldCmp), 2+r.Intn(3))
	}
}

// editStream is a 4:1 mix of the qualified Fig. 7 pairs and edits: each
// round of five ops holds every pair once and one edit, in a seeded order,
// so every round is the same mix.
type editStream struct {
	r     *rand.Rand
	round []op
	i     int
}

func newEditStream(seed int64) *editStream {
	return &editStream{r: rand.New(rand.NewSource(seed)), round: append(qualifiedPairs(), op{kind: opEdit})}
}

func (s *editStream) next() op {
	if s.i == 0 {
		s.r.Shuffle(len(s.round), func(i, j int) { s.round[i], s.round[j] = s.round[j], s.round[i] })
	}
	o := s.round[s.i]
	s.i = (s.i + 1) % len(s.round)
	return o
}

// edit is one generated edit in both of its forms: the public request a
// user sends and the fragment edit the benchmark's oracle mirror applies.
type edit struct {
	kind string
	pub  paxq.Edit
	frag fragment.Edit
}

// editGen draws a seeded stream of valid edits against the current state
// of a mirror fragmentation. Three kinds touch labels the queries read
// (person, age, country); three are label-disjoint (watch, phone/fax).
// Each round of six edits draws every kind once in a seeded order, so
// inserts and deletes of each family balance and the document keeps its
// size over a run.
type editGen struct {
	r        *rand.Rand
	people   []fragment.FragID
	auctions []fragment.FragID
	kinds    []int
	n        int
}

func newEditGen(seed int64, ft *fragment.Fragmentation) *editGen {
	g := &editGen{r: rand.New(rand.NewSource(seed)), kinds: []int{0, 1, 2, 3, 4, 5}}
	for i := 0; i < ft.Len(); i++ {
		switch ft.Frag(fragment.FragID(i)).Tree.Root.Label {
		case "people":
			g.people = append(g.people, fragment.FragID(i))
		case "open_auctions":
			g.auctions = append(g.auctions, fragment.FragID(i))
		}
	}
	return g
}

func childByLabel(n *xmltree.Node, labels ...string) *xmltree.Node {
	for _, c := range n.Children {
		for _, l := range labels {
			if c.Kind == xmltree.Element && c.Label == l {
				return c
			}
		}
	}
	return nil
}

func elementChildren(n *xmltree.Node, label string) []*xmltree.Node {
	var out []*xmltree.Node
	for _, c := range n.Children {
		if c.Kind == xmltree.Element && c.Label == label {
			out = append(out, c)
		}
	}
	return out
}

// next returns the next edit against ft's current state.
func (g *editGen) next(ft *fragment.Fragmentation) (edit, error) {
	r := g.r
	if g.n%len(g.kinds) == 0 {
		r.Shuffle(len(g.kinds), func(i, j int) { g.kinds[i], g.kinds[j] = g.kinds[j], g.kinds[i] })
	}
	kind := g.kinds[g.n%len(g.kinds)]
	g.n++
	pf := g.people[r.Intn(len(g.people))]
	af := g.auctions[r.Intn(len(g.auctions))]
	proot := ft.Frag(pf).Tree.Root
	aroot := ft.Frag(af).Tree.Root
	persons := elementChildren(proot, "person")
	person := func() *xmltree.Node { return persons[r.Intn(len(persons))] }
	if kind == 1 && len(persons) < 2 {
		kind = 0
	}
	watches := elementChildren(aroot, "watch")
	if kind == 4 && len(watches) == 0 {
		kind = 3
	}
	switch kind {
	case 0:
		xml := fmt.Sprintf(`<person><name>Bench %d</name><address><country>%s</country></address><profile><age>%d</age></profile><creditcard>%04d 0000 0000 0000</creditcard></person>`,
			g.n, coldCountries[r.Intn(len(coldCountries))], 18+r.Intn(47), r.Intn(10000))
		return insertEdit("insert-person", pf, proot, r.Intn(len(proot.Children)+1), xml)
	case 1:
		return deleteEdit("delete-person", pf, person()), nil
	case 2:
		p := person()
		var n *xmltree.Node
		var to string
		if r.Intn(2) == 0 {
			if a := childByLabel(p, "address"); a != nil {
				n, to = childByLabel(a, "country", "nation"), "nation"
			}
		} else if pr := childByLabel(p, "profile"); pr != nil {
			n, to = childByLabel(pr, "age", "years"), "years"
		}
		if n == nil {
			return deleteEdit("delete-person", pf, p), nil
		}
		return renameEdit("rename-touching", pf, n, to), nil
	case 3:
		xml := fmt.Sprintf(`<watch><note>%d</note></watch>`, g.n)
		return insertEdit("insert-watch", af, aroot, r.Intn(len(aroot.Children)+1), xml)
	case 4:
		return deleteEdit("delete-watch", af, watches[r.Intn(len(watches))]), nil
	default:
		n := childByLabel(person(), "phone", "fax")
		if n == nil {
			xml := fmt.Sprintf(`<watch><note>%d</note></watch>`, g.n)
			return insertEdit("insert-watch", af, aroot, 0, xml)
		}
		return renameEdit("rename-disjoint", pf, n, "fax"), nil
	}
}

func insertEdit(kind string, fid fragment.FragID, parent *xmltree.Node, pos int, xml string) (edit, error) {
	sub, err := xmltree.ParseString(xml)
	if err != nil {
		return edit{}, fmt.Errorf("edit subtree %q: %w", xml, err)
	}
	return edit{
		kind: kind,
		pub:  paxq.Edit{Fragment: int(fid), Op: paxq.EditInsert, Node: int(parent.ID), Pos: pos, SubtreeXML: xml},
		frag: fragment.Edit{Op: fragment.EditInsert, Node: parent.ID, Pos: pos, Subtree: sub.Root},
	}, nil
}

func deleteEdit(kind string, fid fragment.FragID, n *xmltree.Node) edit {
	return edit{
		kind: kind,
		pub:  paxq.Edit{Fragment: int(fid), Op: paxq.EditDelete, Node: int(n.ID)},
		frag: fragment.Edit{Op: fragment.EditDelete, Node: n.ID},
	}
}

// renameEdit toggles n between its label and alt (or back to the label
// alt was made from), so repeated renames keep the label mix steady.
func renameEdit(kind string, fid fragment.FragID, n *xmltree.Node, alt string) edit {
	to := alt
	if n.Label == alt {
		to = map[string]string{"nation": "country", "years": "age", "fax": "phone"}[alt]
	}
	return edit{
		kind: kind,
		pub:  paxq.Edit{Fragment: int(fid), Op: paxq.EditRename, Node: int(n.ID), Label: to},
		frag: fragment.Edit{Op: fragment.EditRename, Node: n.ID, Label: to},
	}
}
