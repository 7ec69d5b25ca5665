package column

import (
	"math/rand"
	"testing"

	"cachepart/internal/memory"
)

// Package-level sinks keep the compiler from dropping the measured
// work: once Get inlines, a result summed into a local and discarded
// is dead code.
var (
	sinkU32   uint32
	sinkI64   int64
	sinkCount int
)

// randomPacked fills an n-code vector of the given width with seeded
// random codes.
func randomPacked(n int, bits uint) *PackedVector {
	v, _ := NewPackedVector(memory.NewSpace(), "b", n, bits)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < v.Len(); i++ {
		v.Set(i, rng.Uint32()&(1<<bits-1))
	}
	return v
}

func BenchmarkPackedVectorSet(b *testing.B) {
	space := memory.NewSpace()
	v, _ := NewPackedVector(space, "b", 1<<20, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Set(i&(1<<20-1), uint32(i)&0xFFFFF)
	}
}

func BenchmarkPackedVectorGet(b *testing.B) {
	v := randomPacked(1<<20, 20)
	b.ResetTimer()
	var sum uint32
	for i := 0; i < b.N; i++ {
		sum += v.Get(i & (1<<20 - 1))
	}
	sinkU32 = sum
}

func BenchmarkCountInRange(b *testing.B) {
	v := randomPacked(1<<16, 20)
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		sum += v.CountInRange(0, v.Len(), 1000, 500_000)
	}
	sinkI64 = sum
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(v.Len()), "ns/code")
}

// BenchmarkCountInRangeQ1 counts a whole column at 15 bits, the code
// width of the Q1 scan column at the Fast (1/32) scale.
func BenchmarkCountInRangeQ1(b *testing.B) {
	v := randomPacked(1<<16, 15)
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		sum += v.CountInRange(0, v.Len(), 1<<13, 1<<15)
	}
	sinkI64 = sum
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(v.Len()), "ns/code")
}

// BenchmarkCountInRangeStep has the call shape of ColumnScan.Step: one
// count per scheduling slice of about the engine's default quantum
// (1024 rows), each starting where the previous one stopped, so most
// calls begin and end mid-word.
func BenchmarkCountInRangeStep(b *testing.B) {
	const slice, n = 1000, 1 << 16
	v := randomPacked(n+slice, 15)
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		from := i * slice % n
		sum += v.CountInRange(from, from+slice, 1<<13, 1<<15)
	}
	sinkI64 = sum
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/slice, "ns/code")
}

func BenchmarkDictionaryLowerBound(b *testing.B) {
	space := memory.NewSpace()
	vals := make([]int64, 1<<16)
	for i := range vals {
		vals[i] = int64(i) * 3
	}
	d, _ := NewDictionary(space, "b", vals, 4)
	b.ResetTimer()
	var sum uint32
	for i := 0; i < b.N; i++ {
		sum += d.LowerBound(int64(i) % (3 << 16))
	}
	sinkU32 = sum
}

func BenchmarkInvertedIndexLookup(b *testing.B) {
	space := memory.NewSpace()
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 1<<16)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 10)
	}
	c, _ := EncodeDense(space, "b", vals, 0, 1<<10-1, 4)
	ix, _ := BuildInvertedIndex(space, c)
	b.ResetTimer()
	var sum int
	for i := 0; i < b.N; i++ {
		sum += len(ix.Lookup(int64(i) & (1<<10 - 1)))
	}
	sinkCount = sum
}
