package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct{ fn, want string }{
		{"vertigo/internal/sim.(*Engine).Run", "sim"},
		{"vertigo/internal/sim/baseline.(*Engine).Run", "sim"},
		{"vertigo/internal/flowtab.(*Table[go.shape.struct { vertigo/internal/host.next int32 }]).Get", "flowtab"},
		{"vertigo/internal/flowtab.(*Table[go.shape.*vertigo/internal/host.flowState]).Get", "flowtab"},
		{"vertigo/internal/arena.(*Pool[go.shape.int32]).Get.func1", "arena"},
		{"vertigo/internal/fabric.newSwitch.(*Port).initTx.func2", "fabric"},
		{"vertigo/internal/core.runSharded.func3.1", "core"},
		{"runtime.mallocgc", "runtime"},
		{"runtime/internal/atomic.(*Uint32).Load", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime"},
		{"sync/atomic.(*Int64).Add", "runtime"},
		{"encoding/json.(*encodeState).marshal", "runtime"},
		{"slices.SortFunc[go.shape.[]vertigo/internal/fabric.CrossItem,go.shape.struct { At int64 }]", "runtime"},
		{"type:.eq.vertigo/internal/packet.Packet", "runtime"},
		{"", "runtime"},
		{"main.runSim", "other"},
		{"vertigo.Run", "other"},
		{"vertigo/internal/units.Time.String", "other"},
		{"vertigo/internal/exp.(*sweep).run.func1", "other"},
		{"github.com/example/lib.(*T).Do", "other"},
	} {
		if got := layerOf(tc.fn); got != tc.want {
			t.Errorf("layerOf(%q) = %q, want %q", tc.fn, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestProfileLayerNS profiles a busy loop in this package and checks the
// decoded samples land in its layer and add up to the CPU the loop used.
func TestProfileLayerNS(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	c0 := cpuTime()
	spin(400 * time.Millisecond)
	used := cpuTime() - c0
	pprof.StopCPUProfile()

	ns := map[string]int64{}
	if err := profileLayerNS(buf.Bytes(), ns); err != nil {
		t.Fatal(err)
	}
	var total int64
	for l, v := range ns {
		total += v
		if !contains(layers, l) {
			t.Errorf("sample attributed to unlisted layer %q", l)
		}
	}
	if ns["other"] < total/2 {
		t.Errorf("busy loop in package main got %d of %d ns; want most of it in other", ns["other"], total)
	}
	if lo, hi := used.Nanoseconds()/2, used.Nanoseconds()*3/2; total < lo || total > hi {
		t.Errorf("profile holds %v of CPU, process used %v", time.Duration(total), used)
	}
}

func TestProfileLayerNSRejectsGarbage(t *testing.T) {
	if err := profileLayerNS([]byte("not a profile"), map[string]int64{}); err == nil {
		t.Fatal("decoded a non-profile without error")
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
