package core

import (
	"testing"

	"repro/internal/mem"
)

func BenchmarkStoreMerge(b *testing.B) {
	buf := NewBuffer(DefaultConfig())
	buf.Store(0x100, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Store(0x108, uint64(i)) // always merges into the resident line
	}
}

func BenchmarkStoreAllocateRetire(b *testing.B) {
	buf := NewBuffer(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf.Store(mem.Addr(i)*mem.LineBytes, uint64(i)) == StoreBlocked {
			buf.BeginRetire()
			buf.CompleteRetire()
			buf.Store(mem.Addr(i)*mem.LineBytes, uint64(i))
		}
	}
}

func BenchmarkProbe(b *testing.B) {
	buf := NewBuffer(Config{Depth: 12, WordsPerEntry: 4, Geometry: mem.DefaultGeometry})
	for i := 0; i < 12; i++ {
		buf.Store(mem.Addr(i)*mem.LineBytes, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Probe(mem.Addr(i%16) * mem.LineBytes)
	}
}

func BenchmarkWriteCacheStore(b *testing.B) {
	wc := NewWriteCache(Config{Depth: 8, WordsPerEntry: 4, Geometry: mem.DefaultGeometry})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if wc.Occupancy() == wc.Capacity() {
			wc.BeginRetire()
			wc.CompleteRetire()
		}
		wc.Store(mem.Addr(i%32)*mem.LineBytes, uint64(i))
	}
}
