package rbtree

import (
	"sort"
	"testing"
	"testing/quick"

	"enoki/internal/ktime"
)

func intTree() *Tree[int, string] {
	return New[int, string](func(a, b int) bool { return a < b })
}

// ins inserts (key, val) on a fresh node and returns it.
func ins(tr *Tree[int, string], key int, val string) *Node[int, string] {
	n := new(Node[int, string])
	tr.Insert(n, key, val)
	return n
}

func TestEmptyTree(t *testing.T) {
	tr := intTree()
	if tr.Len() != 0 {
		t.Fatal("new tree not empty")
	}
	if tr.Min() != nil {
		t.Fatal("Min on empty tree not nil")
	}
	if tr.PopMin() != nil {
		t.Fatal("PopMin on empty tree not nil")
	}
	tr.CheckInvariants()
}

func TestInsertAndMin(t *testing.T) {
	tr := intTree()
	for _, k := range []int{5, 3, 8, 1, 9, 7} {
		ins(tr, k, "")
		tr.CheckInvariants()
	}
	if tr.Len() != 6 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Min().Key() != 1 {
		t.Fatalf("Min = %d", tr.Min().Key())
	}
}

func TestAscendSorted(t *testing.T) {
	tr := intTree()
	keys := []int{42, 17, 99, 3, 56, 23, 88, 11, 64, 7}
	for _, k := range keys {
		ins(tr, k, "")
	}
	var got []int
	tr.Ascend(func(n *Node[int, string]) bool {
		got = append(got, n.Key())
		return true
	})
	want := append([]int(nil), keys...)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("got %d keys", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order mismatch at %d: %v vs %v", i, got, want)
		}
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := intTree()
	for i := 0; i < 10; i++ {
		ins(tr, i, "")
	}
	n := 0
	tr.Ascend(func(*Node[int, string]) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestDeleteByHandle(t *testing.T) {
	tr := intTree()
	nodes := make(map[int]*Node[int, string])
	for _, k := range []int{5, 3, 8, 1, 9, 7, 2, 6, 4} {
		nodes[k] = ins(tr, k, "")
	}
	for _, k := range []int{5, 1, 9, 3} {
		tr.Delete(nodes[k])
		tr.CheckInvariants()
		delete(nodes, k)
	}
	if tr.Len() != 5 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	if tr.Min().Key() != 2 {
		t.Fatalf("Min = %d", tr.Min().Key())
	}
}

func TestDoubleDeletePanics(t *testing.T) {
	tr := intTree()
	n := ins(tr, 1, "")
	tr.Delete(n)
	defer func() {
		if recover() == nil {
			t.Fatal("double delete did not panic")
		}
	}()
	tr.Delete(n)
}

func TestDeleteForeignNodePanics(t *testing.T) {
	a, b := intTree(), intTree()
	n := ins(a, 1, "")
	defer func() {
		if recover() == nil {
			t.Fatal("cross-tree delete did not panic")
		}
	}()
	b.Delete(n)
}

func TestEqualKeysStableOrder(t *testing.T) {
	// CFS relies on equal-vruntime entities dequeueing in insertion order.
	tr := intTree()
	ins(tr, 5, "first")
	ins(tr, 5, "second")
	ins(tr, 5, "third")
	var got []string
	for {
		n := tr.PopMin()
		if n == nil {
			break
		}
		got = append(got, n.Value())
	}
	if len(got) != 3 || got[0] != "first" || got[1] != "second" || got[2] != "third" {
		t.Fatalf("equal-key order: %v", got)
	}
}

func TestPopMinDrainsSorted(t *testing.T) {
	tr := intTree()
	r := ktime.NewRand(1)
	for i := 0; i < 1000; i++ {
		ins(tr, r.Intn(100), "")
	}
	prev := -1
	for {
		n := tr.PopMin()
		if n == nil {
			break
		}
		if n.Key() < prev {
			t.Fatalf("PopMin out of order: %d after %d", n.Key(), prev)
		}
		prev = n.Key()
	}
	if tr.Len() != 0 {
		t.Fatal("tree not empty after drain")
	}
	tr.CheckInvariants()
}

func TestSetValue(t *testing.T) {
	tr := intTree()
	n := ins(tr, 1, "a")
	n.SetValue("b")
	if tr.Min().Value() != "b" {
		t.Fatal("SetValue not visible")
	}
}

func TestNextIteration(t *testing.T) {
	tr := intTree()
	for i := 0; i < 20; i += 2 {
		ins(tr, i, "")
	}
	n := tr.Min()
	for want := 0; want < 20; want += 2 {
		if n == nil || n.Key() != want {
			t.Fatalf("Next iteration broke at %d", want)
		}
		n = tr.Next(n)
	}
	if n != nil {
		t.Fatal("Next past maximum not nil")
	}
}

// item is an element with its tree link embedded by value, the way the
// kernel's CFS entity embeds its run-queue node.
type item struct {
	key  int
	node Node[int, *item]
}

func itemTree() *Tree[int, *item] {
	return New[int, *item](func(a, b int) bool { return a < b })
}

// Property test: any interleaving of inserts, handle-deletes and re-inserts
// of the same embedded nodes keeps the red-black invariants, the size, and
// the min in agreement with a reference model.
func TestQuickRandomOps(t *testing.T) {
	f := func(seed uint64) bool {
		r := ktime.NewRand(seed)
		tr := itemTree()
		items := make([]item, 64)
		live := 0
		for op := 0; op < 400; op++ {
			it := &items[r.Intn(len(items))]
			if it.node.Inserted() {
				tr.Delete(&it.node)
				live--
				if it.node.Inserted() || it.node.Value() != it {
					return false
				}
			} else {
				it.key = r.Intn(50)
				tr.Insert(&it.node, it.key, it)
				live++
			}
			tr.CheckInvariants()
			if tr.Len() != live {
				return false
			}
			min, found := 1<<30, false
			for i := range items {
				if items[i].node.Inserted() && items[i].key < min {
					min, found = items[i].key, true
				}
			}
			if !found {
				if tr.Min() != nil {
					return false
				}
			} else if m := tr.Min(); m.Key() != min || m.Value().key != min {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestReinsertAfterDelete: a deleted node is a clean, unlinked node that
// goes back into the tree under a new key.
func TestReinsertAfterDelete(t *testing.T) {
	tr := itemTree()
	items := make([]item, 8)
	for i := range items {
		items[i].key = i
		tr.Insert(&items[i].node, i, &items[i])
	}
	e := &items[0]
	tr.Delete(&e.node)
	if e.node.Inserted() || tr.Len() != 7 || tr.Min().Key() != 1 {
		t.Fatalf("after delete: inserted=%v len=%d min=%d", e.node.Inserted(), tr.Len(), tr.Min().Key())
	}
	e.key = 100
	tr.Insert(&e.node, e.key, e)
	tr.CheckInvariants()
	if !e.node.Inserted() || tr.Len() != 8 || tr.Min().Key() != 1 {
		t.Fatalf("after re-insert: inserted=%v len=%d min=%d", e.node.Inserted(), tr.Len(), tr.Min().Key())
	}
	var last *item
	tr.Ascend(func(n *Node[int, *item]) bool { last = n.Value(); return true })
	if last != e {
		t.Fatal("re-inserted node is not the maximum")
	}
	// A popped node re-inserts as well.
	n := tr.PopMin()
	tr.Insert(n, -1, n.Value())
	tr.CheckInvariants()
	if tr.Min() != n || tr.Len() != 8 {
		t.Fatal("popped node did not re-insert as the minimum")
	}
}

// TestDoubleInsertPanics: linking a node that is already in a tree would
// corrupt both trees, so Insert refuses, whether the node is in this tree
// or another.
func TestDoubleInsertPanics(t *testing.T) {
	for _, other := range []bool{false, true} {
		func() {
			a, b := intTree(), intTree()
			n := ins(a, 1, "")
			dst := a
			if other {
				dst = b
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("double insert (other tree %v) did not panic", other)
				}
				a.CheckInvariants()
				if a.Len() != 1 || b.Len() != 0 {
					t.Fatalf("failed insert changed the trees: %d, %d", a.Len(), b.Len())
				}
			}()
			dst.Insert(n, 2, "")
		}()
	}
}

func BenchmarkInsertPopMin(b *testing.B) {
	tr := New[int64, int](func(a, c int64) bool { return a < c })
	nodes := make([]Node[int64, int], 65)
	free := make([]*Node[int64, int], 0, len(nodes))
	for i := range nodes {
		free = append(free, &nodes[i])
	}
	r := ktime.NewRand(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := free[len(free)-1]
		free = free[:len(free)-1]
		tr.Insert(n, int64(r.Uint64()%1e9), i)
		if tr.Len() > 64 {
			free = append(free, tr.PopMin())
		}
	}
}
