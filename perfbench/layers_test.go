package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"tinydir/internal/cache.(*Cache).Lookup":                  "cache",
		"tinydir/internal/system.(*bankNode).dataLine":            "system",
		"tinydir/internal/sim.(*Engine).push":                     "sim",
		"tinydir/internal/intern.(*Table).ID":                     "intern",
		"tinydir/internal/blockmap.(*Map[go.shape.uint32]).Get":   "blockmap",
		"tinydir/internal/dir.(*Sparse).Lookup":                   "dir",
		"tinydir/internal/core.(*Tiny).Access":                    "core",
		"tinydir/internal/mesh.(*Mesh).Send":                      "mesh",
		"tinydir/internal/dram.(*DRAM).Access":                    "dram",
		"tinydir/internal/trace.(*Gen).core":                      "trace",
		"tinydir/internal/runstore.(*Dir).Get":                    "runstore",
		"tinydir/internal/sweepd.(*Coordinator).claim":            "sweepd",
		"tinydir/internal/snapshot.(*Writer).U64":                 "snapshot",
		"tinydir/internal/bitvec.Vec.Has":                         "other",
		"tinydir.(*Suite).prefetch.func1":                         "other",
		"runtime.mallocgc":                                        "runtime_alloc",
		"runtime.mallocgcSmallNoscan":                             "runtime_alloc",
		"runtime.growslice":                                       "runtime_alloc",
		"runtime.(*mheap).alloc":                                  "runtime_alloc",
		"runtime.scanobject":                                      "runtime_gc",
		"runtime.gcDrain":                                         "runtime_gc",
		"runtime.(*gcWork).tryGet":                                "runtime_gc",
		"runtime.memmove":                                         "runtime_other",
		"runtime.futex":                                           "runtime_other",
		"net/http.(*conn).serve":                                  "net_http",
		"net/http/internal.(*chunkedReader).Read":                 "net_http",
		"crypto/sha256.(*Digest).Write":                           "crypto_sha256",
		"crypto/internal/fips140/sha256.blockAVX2":                "crypto_sha256",
		"encoding/json.(*decodeState).object":                     "encoding_json",
		"syscall.Syscall":                                         "syscall",
		"internal/poll.(*FD).Write":                               "syscall",
		"os.(*File).Write":                                        "syscall",
		"bufio.(*Writer).Flush":                                   "other",
		"sync.(*Pool[tinydir/internal/cache.line]).Get":           "other",
		"tinydir/internal/cache.newSlab[go.shape.struct { a.b }]": "cache",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// spin burns CPU in this package's own frames for d.
//
//go:noinline
func spin(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// TestCPUByLayerDecodesProfile profiles a busy loop and checks the
// decoder finds samples whose CPU adds up to roughly the time spent.
func TestCPUByLayerDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	by, n, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no samples decoded")
	}
	var total int64
	for _, v := range by {
		total += v
	}
	if total < int64(100*time.Millisecond) || total > int64(2*time.Second) {
		t.Errorf("decoded %v of CPU for a 300ms spin", time.Duration(total))
	}
	// The spin's frames live in package main, which is no named layer.
	if by["other"] < total/2 {
		t.Errorf("spin CPU not in the other bucket: %v", by)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := cpuByLayer([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}
