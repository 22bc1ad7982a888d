package flatmap

import (
	"math/rand"
	"sort"
	"testing"
)

// TestDifferentialVsBuiltinMap drives a U32 and a shadow built-in map
// through seeded random operation sequences — insert, overwrite, delete,
// lookup, growth across several capacity doublings, and full iteration —
// and requires identical contents after every operation. Keys are drawn
// from a small universe so probe chains collide and deletes regularly land
// mid-chain, exercising backward-shift restoration.
func TestDifferentialVsBuiltinMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m U32[int]
		shadow := map[uint32]int{}
		// A small key universe forces collisions; a larger one forces growth.
		universe := uint32(16 + rng.Intn(4096))
		for op := 0; op < 5000; op++ {
			k := uint32(rng.Intn(int(universe)))
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // insert / overwrite
				v := rng.Int()
				m.Put(k, v)
				shadow[k] = v
			case 4, 5: // delete (often absent)
				got := m.Delete(k)
				_, want := shadow[k]
				if got != want {
					t.Fatalf("seed %d op %d: Delete(%d) = %v, shadow says %v", seed, op, k, got, want)
				}
				delete(shadow, k)
			case 6: // upsert + in-place mutation
				*m.Upsert(k) += 7
				shadow[k] += 7
			case 7, 8: // lookup
				gv, gok := m.Get(k)
				wv, wok := shadow[k]
				if gok != wok || gv != wv {
					t.Fatalf("seed %d op %d: Get(%d) = %v,%v want %v,%v", seed, op, k, gv, gok, wv, wok)
				}
			case 9: // periodic full-content comparison
				requireEqual(t, &m, shadow)
			}
			if m.Len() != len(shadow) {
				t.Fatalf("seed %d op %d: Len %d != shadow %d", seed, op, m.Len(), len(shadow))
			}
		}
		requireEqual(t, &m, shadow)
	}
}

// TestDeleteDuringProbeChain constructs keys that all hash to nearby slots
// (by brute-force searching the key space) and deletes them front, middle,
// and back, checking that every survivor stays reachable — the exact
// backward-shift cases a tombstone-free table must get right.
func TestDeleteDuringProbeChain(t *testing.T) {
	var probe U32[int]
	probe.Reserve(64)
	capN := probe.Cap()
	// Gather keys sharing one home bucket in a table of this capacity.
	home := func(k uint32) int { return int(hash(k) & uint64(capN-1)) }
	var cluster []uint32
	for k := uint32(0); len(cluster) < 9 && k < 1<<20; k++ {
		if home(k) == 5 {
			cluster = append(cluster, k)
		}
	}
	if len(cluster) < 9 {
		t.Fatal("could not find colliding keys")
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {1, 2, 0}} {
		var m U32[int]
		m.Reserve(64)
		if m.Cap() != capN {
			t.Fatalf("capacity drifted: %d != %d", m.Cap(), capN)
		}
		shadow := map[uint32]int{}
		for i, k := range cluster {
			m.Put(k, i)
			shadow[k] = i
		}
		for _, idx := range order {
			k := cluster[idx*3] // front, middle, back of the chain
			if !m.Delete(k) {
				t.Fatalf("order %v: Delete(%d) missed", order, k)
			}
			delete(shadow, k)
			requireEqual(t, &m, shadow)
		}
	}
}

func requireEqual(t *testing.T, m *U32[int], shadow map[uint32]int) {
	t.Helper()
	if m.Len() != len(shadow) {
		t.Fatalf("Len %d != shadow %d", m.Len(), len(shadow))
	}
	seen := 0
	m.Range(func(k uint32, v int) {
		wv, ok := shadow[k]
		if !ok || wv != v {
			t.Fatalf("Range yielded %d=%d; shadow has %v,%v", k, v, wv, ok)
		}
		seen++
	})
	if seen != len(shadow) {
		t.Fatalf("Range yielded %d entries, want %d", seen, len(shadow))
	}
	for k, v := range shadow {
		if gv, ok := m.Get(k); !ok || gv != v {
			t.Fatalf("Get(%d) = %v,%v want %v,true", k, gv, ok, v)
		}
	}
}

// TestKeysSortedRegardlessOfHistory inserts the same contents via two
// different insertion/deletion histories and requires identical, sorted
// Keys output — the determinism argument for cold-path scans.
func TestKeysSortedRegardlessOfHistory(t *testing.T) {
	var a, b U32[int]
	for k := uint32(0); k < 100; k++ {
		a.Put(k, int(k))
	}
	for k := uint32(0); k < 150; k++ {
		b.Put(150-1-k, int(150-1-k))
	}
	for k := uint32(100); k < 150; k++ {
		b.Delete(k)
	}
	ka, kb := a.Keys(nil), b.Keys(nil)
	if !sort.SliceIsSorted(ka, func(i, j int) bool { return ka[i] < ka[j] }) {
		t.Fatal("Keys not sorted")
	}
	if len(ka) != len(kb) {
		t.Fatalf("key counts differ: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("key order diverged at %d: %d vs %d", i, ka[i], kb[i])
		}
	}
}

func TestScanVisitsAllWithoutAllocating(t *testing.T) {
	var m U32[int64]
	var wantSum int64
	for k := uint32(0); k < 500; k++ {
		m.Put(k, int64(k))
		wantSum += int64(k)
	}
	for k := uint32(400); k < 500; k++ {
		m.Delete(k)
		wantSum -= int64(k)
	}
	var sum int64
	n := 0
	scan := func() {
		sum, n = 0, 0
		m.Scan(func(k uint32, v int64) {
			if int64(k) != v {
				t.Fatalf("Scan entry %d carries value %d", k, v)
			}
			sum += v
			n++
		})
	}
	if avg := testing.AllocsPerRun(100, scan); avg != 0 {
		t.Fatalf("Scan allocates %.2f allocs/op, want 0", avg)
	}
	if n != 400 || sum != wantSum {
		t.Fatalf("Scan visited %d entries summing %d, want 400 summing %d", n, sum, wantSum)
	}
	var empty U32[int64]
	empty.Scan(func(uint32, int64) { t.Fatal("Scan on empty table called fn") })
}

func TestZeroValueReady(t *testing.T) {
	var m U32[int]
	if _, ok := m.Get(42); ok {
		t.Fatal("empty table claims membership")
	}
	if m.Delete(42) {
		t.Fatal("empty table deleted something")
	}
	if m.Ptr(42) != nil {
		t.Fatal("empty table returned a value pointer")
	}
	m.Put(42, 1)
	if v, ok := m.Get(42); !ok || v != 1 {
		t.Fatalf("Get after first Put = %v,%v", v, ok)
	}
	var u U64[string]
	u.Put(1<<40, "x")
	if v, _ := u.Get(1 << 40); v != "x" {
		t.Fatal("U64 round trip failed")
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	var m U32[int]
	for k := uint32(0); k < 1000; k++ {
		m.Put(k, 1)
	}
	c := m.Cap()
	m.Reset()
	if m.Len() != 0 || m.Cap() != c {
		t.Fatalf("Reset: len=%d cap=%d want 0,%d", m.Len(), m.Cap(), c)
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("Reset table still has entries")
	}
	m.Put(7, 7)
	if v, _ := m.Get(7); v != 7 {
		t.Fatal("table unusable after Reset")
	}
}

func TestStamps(t *testing.T) {
	st := NewStamps[int64](4)
	if st.AtLeast(0, -1<<40) {
		t.Fatal("unset slot passed a low cutoff")
	}
	if st.Get(2) != Never || st.Get(99) != Never {
		t.Fatal("unset/out-of-range slots must read Never")
	}
	st.Set(2, 100)
	if !st.AtLeast(2, 100) || !st.AtLeast(2, 50) || st.AtLeast(2, 101) {
		t.Fatal("membership comparison wrong")
	}
	if st.AtLeast(99, 0) {
		t.Fatal("out-of-range key is a member")
	}
	st.Clear(2)
	if st.AtLeast(2, 0) || st.Get(2) != Never {
		t.Fatal("Clear did not expire the slot")
	}
	var z Stamps[int64]
	if z.AtLeast(0, 0) {
		t.Fatal("zero-value Stamps claims membership")
	}
	z.SetGrow(10, 5)
	if !z.AtLeast(10, 5) || z.AtLeast(3, Never+1) {
		t.Fatal("SetGrow semantics wrong")
	}
	z.Reset()
	if z.AtLeast(10, Never+1) || z.Len() != 11 {
		t.Fatal("Reset semantics wrong")
	}
}

// TestFlatmapZeroAlloc is the static 0-allocs assertion behind the
// micro-benchmarks: steady-state get/put/delete on warmed tables must not
// touch the heap.
func TestFlatmapZeroAlloc(t *testing.T) {
	var m U32[int]
	m.Reserve(1024)
	for k := uint32(0); k < 512; k++ {
		m.Put(k, int(k))
	}
	st := NewStamps[int64](64)
	allocs := testing.AllocsPerRun(1000, func() {
		m.Put(600, 1) // overwrite after first run; no growth (cap reserved)
		if _, ok := m.Get(77); !ok {
			t.Fatal("lost a key")
		}
		m.Delete(601)
		m.Put(601, 2)
		st.Set(5, 42)
		if !st.AtLeast(5, 42) {
			t.Fatal("stamp lost")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ops allocated %v times per run", allocs)
	}
}

func BenchmarkFlatmapGet(b *testing.B) {
	var m U32[int]
	for k := uint32(0); k < 4096; k++ {
		m.Put(k, int(k))
	}
	b.ReportAllocs()
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		v, _ := m.Get(uint32(i) & 4095)
		s += v
	}
	sinkInt = s
}

func BenchmarkFlatmapPutDelete(b *testing.B) {
	var m U32[int]
	m.Reserve(4096)
	for k := uint32(0); k < 2048; k++ {
		m.Put(k, int(k))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 2048 + uint32(i)&1023
		m.Put(k, i)
		m.Delete(k)
	}
}

func BenchmarkFlatmapStamps(b *testing.B) {
	st := NewStamps[int64](64)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		st.Set(i&63, int64(i))
		if st.AtLeast((i+1)&63, int64(i-64)) {
			n++
		}
	}
	sinkInt = n
}

// Reference points: the same access patterns through a built-in map.
func BenchmarkBuiltinMapGet(b *testing.B) {
	m := map[uint32]int{}
	for k := uint32(0); k < 4096; k++ {
		m[k] = int(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s := 0
	for i := 0; i < b.N; i++ {
		s += m[uint32(i)&4095]
	}
	sinkInt = s
}

func BenchmarkBuiltinMapPutDelete(b *testing.B) {
	m := map[uint32]int{}
	for k := uint32(0); k < 2048; k++ {
		m[k] = int(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 2048 + uint32(i)&1023
		m[k] = i
		delete(m, k)
	}
}

var sinkInt int
