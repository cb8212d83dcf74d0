package labbase

import "testing"

type testNode = treapNode[uint64, uint64]

// nodeImage is what a published node must keep: its key, value and links.
type nodeImage struct {
	key, val    uint64
	left, right *testNode
}

// imageOf records every node reachable from root.
func imageOf(root *testNode) map[*testNode]nodeImage {
	img := map[*testNode]nodeImage{}
	var walk func(n *testNode)
	walk = func(n *testNode) {
		if n == nil {
			return
		}
		img[n] = nodeImage{n.key, n.val, n.left, n.right}
		walk(n.left)
		walk(n.right)
	}
	walk(root)
	return img
}

// TestTreapHeldRootsUnchanged holds a snapshot's roots across many puts and
// deletes, with the rotations they cause, and then checks that every node
// reachable from each held root is unchanged: key, value and both links.
// It guards the path copy that keeps published nodes immutable. The final
// tree must still be a treap: keys in order, priorities heap-ordered.
func TestTreapHeldRootsUnchanged(t *testing.T) {
	var root *testNode
	var held []*testNode
	var images []map[*testNode]nodeImage
	x := uint64(1)
	for i := 0; i < 3000; i++ {
		x = x*6364136223846793005 + 1442695040888963407 // deterministic LCG
		key := (x >> 33) % 400
		if i%3 == 2 {
			root = treapDelete(root, key)
		} else {
			root = treapPut(root, key, oidPri(key), uint64(i))
		}
		if i%50 == 0 {
			held = append(held, root)
			images = append(images, imageOf(root))
		}
	}
	for i, img := range images {
		for n, want := range img {
			if got := (nodeImage{n.key, n.val, n.left, n.right}); got != want {
				t.Fatalf("held root %d: node %d changed after it was published: %+v, was %+v", i, want.key, got, want)
			}
		}
		if len(imageOf(held[i])) != len(img) {
			t.Fatalf("held root %d: reachable node count changed", i)
		}
	}
	var check func(n *testNode, lo, hi uint64)
	check = func(n *testNode, lo, hi uint64) {
		if n == nil {
			return
		}
		if n.key < lo || n.key > hi {
			t.Fatalf("key %d outside [%d, %d]: not in order", n.key, lo, hi)
		}
		for _, c := range []*testNode{n.left, n.right} {
			if c != nil && c.pri > n.pri {
				t.Fatalf("child %d outranks parent %d: not heap-ordered", c.key, n.key)
			}
		}
		if n.left != nil {
			check(n.left, lo, n.key-1)
		}
		check(n.right, n.key+1, hi)
	}
	check(root, 0, ^uint64(0))
}
