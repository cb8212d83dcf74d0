package pagefile

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestPage() []byte {
	p := make([]byte, PageSize)
	initPage(p, 3, 0)
	return p
}

// insert is pageInsert without slack on a page the test built itself, where
// an error can only mean a broken accessor.
func insert(t *testing.T, p, data []byte) (int, bool) {
	t.Helper()
	slot, ok, err := pageInsert(p, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	return slot, ok
}

func TestPageInsertRead(t *testing.T) {
	p := newTestPage()
	var slots []int
	var wants [][]byte
	for i := 0; ; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 100+i)
		slot, ok := insert(t, p, data)
		if !ok {
			break
		}
		slots = append(slots, slot)
		wants = append(wants, data)
	}
	if len(slots) < 10 {
		t.Fatalf("only %d records fit in a page", len(slots))
	}
	for i, slot := range slots {
		got, err := pageRead(p, slot)
		if err != nil {
			t.Fatalf("read slot %d: %v", slot, err)
		}
		if !bytes.Equal(got, wants[i]) {
			t.Fatalf("slot %d corrupted", slot)
		}
	}
	if pageSeg(p) != 3 {
		t.Errorf("segment = %d, want 3", pageSeg(p))
	}
}

func TestPageSlotReuse(t *testing.T) {
	p := newTestPage()
	slot, ok := insert(t, p, make([]byte, 500))
	if !ok {
		t.Fatal("insert failed")
	}
	// Fill the rest.
	for {
		if _, ok := insert(t, p, make([]byte, 500)); !ok {
			break
		}
	}
	if err := pageFreeSlot(p, slot); err != nil {
		t.Fatal(err)
	}
	// A smaller record must reuse the freed slot's reserved space.
	got, ok := insert(t, p, []byte("reuse me"))
	if !ok {
		t.Fatal("insert after free failed")
	}
	if got != slot {
		t.Errorf("reused slot = %d, want %d", got, slot)
	}
	data, err := pageRead(p, slot)
	if err != nil || string(data) != "reuse me" {
		t.Fatalf("read reused slot = %q, %v", data, err)
	}
	if err := pageFreeSlot(p, 9999); err == nil {
		t.Error("freeing out-of-range slot should fail")
	}
}

func TestPageUpdate(t *testing.T) {
	p := newTestPage()
	slot, _ := insert(t, p, []byte("hello world"))
	ok, err := pageUpdate(p, slot, []byte("short"))
	if err != nil || !ok {
		t.Fatalf("in-place shrink: ok=%v err=%v", ok, err)
	}
	data, _ := pageRead(p, slot)
	if string(data) != "short" {
		t.Fatalf("after shrink = %q", data)
	}
	// Growing past the reserved capacity must be refused (not an error).
	ok, err = pageUpdate(p, slot, bytes.Repeat([]byte("x"), 100))
	if err != nil || ok {
		t.Fatalf("over-capacity update: ok=%v err=%v; want refused", ok, err)
	}
	// But growing back to the original capacity is fine.
	ok, err = pageUpdate(p, slot, []byte("hello again"))
	if err != nil || !ok {
		t.Fatalf("capacity-fit update: ok=%v err=%v", ok, err)
	}
}

func TestPageDoubleFree(t *testing.T) {
	p := newTestPage()
	slot, _ := insert(t, p, []byte("x"))
	if err := pageFreeSlot(p, slot); err != nil {
		t.Fatal(err)
	}
	if err := pageFreeSlot(p, slot); err == nil {
		t.Error("double free should fail")
	}
	if _, err := pageRead(p, slot); err == nil {
		t.Error("reading freed slot should fail")
	}
}

func TestMaxInlineFits(t *testing.T) {
	p := newTestPage()
	if _, ok := insert(t, p, make([]byte, MaxInline)); !ok {
		t.Fatal("MaxInline record must fit an empty page")
	}
	p2 := newTestPage()
	if _, ok := insert(t, p2, make([]byte, MaxInline+1)); ok {
		t.Fatal("MaxInline+1 record must not fit")
	}
}

// TestQuickPageModel inserts/frees randomly and checks against a model.
func TestQuickPageModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newTestPage()
		model := map[int][]byte{}
		for i := 0; i < 200; i++ {
			if rng.Intn(3) == 0 && len(model) > 0 {
				for slot := range model {
					if err := pageFreeSlot(p, slot); err != nil {
						return false
					}
					delete(model, slot)
					break
				}
				continue
			}
			data := make([]byte, rng.Intn(300))
			rng.Read(data)
			slot, ok := insert(t, p, data)
			if !ok {
				continue
			}
			if _, exists := model[slot]; exists {
				return false // slot double-issued
			}
			model[slot] = data
		}
		for slot, want := range model {
			got, err := pageRead(p, slot)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStubRoundTrip(t *testing.T) {
	pages := []PageID{5, 9, 1000000}
	stub := encodeStub(12345, pages)
	total, got, err := decodeStub(stub)
	if err != nil {
		t.Fatal(err)
	}
	if total != 12345 || len(got) != 3 || got[2] != 1000000 {
		t.Fatalf("decodeStub = %d, %v", total, got)
	}
	if _, _, err := decodeStub([]byte{0xFF}); err == nil {
		t.Error("corrupt stub should fail to decode")
	}
}
