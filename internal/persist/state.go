package persist

import "fmt"

// Discard charges nothing: every access, flush and fence is a no-op. Pad is
// the NodePad it reports. Because no structure in internal/ds branches on
// what a policy does, a structure driven through Discard ends with the same
// node graph and allocator cursor as one driven through any policy with the
// same NodePad. That makes it the replay policy for rebuilding a structure
// whose simulated state is restored from a saved copy.
type Discard struct{ Pad uint64 }

func (Discard) Name() string      { return "discard" }
func (Discard) Load(int, uint64)  {}
func (Discard) Store(int, uint64) {}
func (Discard) Flush(int, uint64) {}
func (Discard) Fence(int)         {}
func (d Discard) NodePad() uint64 { return d.Pad }

// State is what a policy carries from one operation to the next, apart from
// the cache contents it drives: link-and-persist's pending marks. A State
// never changes once saved, so many goroutines may restore one at once.
type State struct {
	marks []uint64
}

// SaveState returns pol's state between operations. FliT's counters are
// not copied: a store raises its counter and lowers it again before it
// returns, so between the operations of a single-owner run every counter
// is zero. SaveState checks that instead. It panics on a policy type it
// does not know, since it could not tell what state that type keeps.
func SaveState(pol Policy) State {
	switch p := pol.(type) {
	case *LinkAndPersist:
		return State{marks: p.marks.list()}
	case *FliT:
		for i := range p.counters {
			if p.counters[i].Load() != 0 {
				panic("persist: SaveState with a FliT store in flight")
			}
		}
	case *Plain, Discard:
	default:
		panic(fmt.Sprintf("persist: SaveState of unknown policy %T", pol))
	}
	return State{}
}

// RestoreState installs s into pol, a freshly built policy of the type s
// was saved from.
func RestoreState(pol Policy, s State) {
	if len(s.marks) == 0 {
		return
	}
	l, ok := pol.(*LinkAndPersist)
	if !ok {
		panic(fmt.Sprintf("persist: RestoreState of link-and-persist marks into %T", pol))
	}
	for _, addr := range s.marks {
		l.marks.set(addr)
	}
}
