package main

import (
	"fmt"
	"strings"

	"vertigo/internal/core"
	"vertigo/internal/exp"
	"vertigo/internal/fabric"
	"vertigo/internal/faults"
	"vertigo/internal/topo"
	"vertigo/internal/transport"
	"vertigo/internal/units"
)

// workload is one scenario the benchmark runs through core.Run. Traffic is
// open-loop Poisson in simulated time; the seed is the only input that
// varies between runs.
type workload struct {
	name   string
	config func(seed int64) core.Config
}

// workloads are the benchmark's scenarios; NOTES.md gives why each exists.
var workloads = []workload{
	{"ls_vertigo_incast", lsVertigoIncast},
	{"ls_ecmp_flap", lsECMPFlap},
	{"ft16_churn", ft16Churn},
	{"ft8_sharded2", ft8Sharded2},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// tinyLeafSpine is exp.Tiny's leaf-spine fabric: 2 spines, 4 leaves, 16
// hosts, 10G access and 40G fabric links.
func tinyLeafSpine(cfg *core.Config) {
	sc := exp.Tiny
	cfg.Kind = core.LeafSpine
	cfg.LeafSpineCfg = topo.LeafSpineConfig{
		Spines:       sc.Spines,
		Leaves:       sc.Leaves,
		HostsPerLeaf: sc.HostsPerLeaf,
		HostRate:     10 * units.Gbps,
		FabricRate:   40 * units.Gbps,
		LinkDelay:    500 * units.Nanosecond,
	}
	cfg.IncastScale = sc.IncastScale
	cfg.IncastFlowSize = int64(sc.IncastFlowKB) * 1000
}

// lsVertigoIncast is the BenchmarkRunThroughput scenario: Vertigo + DCTCP,
// 25% cache-follower background plus 60% incast on the Tiny leaf-spine.
func lsVertigoIncast(seed int64) core.Config {
	cfg := core.DefaultConfig(fabric.Vertigo, transport.DCTCP)
	cfg.Seed = seed
	cfg.SimTime = 60 * units.Millisecond
	tinyLeafSpine(&cfg)
	cfg.BGLoad = 0.25
	cfg.SetIncastLoad(0.60)
	return cfg
}

// lsECMPFlap is the same fabric under ECMP + TCP Reno with drop-tail queues
// and no Vertigo host stack, 30% background plus 50% incast, while the first
// leaf uplink flaps three times from T/4 (down T/16 of every T/8, as in the
// flapstorm experiment) and the control plane heals after each change.
func lsECMPFlap(seed int64) core.Config {
	cfg := core.DefaultConfig(fabric.ECMP, transport.Reno)
	cfg.Seed = seed
	cfg.SimTime = 60 * units.Millisecond
	tinyLeafSpine(&cfg)
	cfg.BGLoad = 0.30
	cfg.SetIncastLoad(0.50)
	T := cfg.SimTime
	firstUplink := cfg.NumHosts() // host links come first, then leaf uplinks
	cfg.Faults = (&faults.Schedule{}).Add(faults.Flap(firstUplink, T/4, T/16, T/8, 3)...)
	cfg.HealDelay = T / 64
	return cfg
}

// ft16Churn is exp.Huge's k=16 fat-tree (1024 hosts) under a 40% incast-only
// load of 4 KB flows, cut to an eighth of that preset's horizon. About 40k
// packets are in flight at any instant; at this horizon they are under a
// tenth of the packets sent, as checkSummary requires.
func ft16Churn(seed int64) core.Config {
	sc := exp.Huge
	cfg := core.DefaultConfig(fabric.Vertigo, transport.DCTCP)
	cfg.Seed = seed
	cfg.SimTime = sc.SimTime / 8
	cfg.Kind = core.FatTree
	cfg.FatTreeCfg = topo.FatTreeConfig{K: sc.FatTreeK, Rate: 10 * units.Gbps, LinkDelay: 500 * units.Nanosecond}
	cfg.IncastScale = sc.IncastScale
	cfg.IncastFlowSize = int64(sc.IncastFlowKB) * 1000
	cfg.BGLoad = 0
	cfg.SetIncastLoad(0.40)
	return cfg
}

// ft8Sharded2 is the paper's k=8 fat-tree (128 hosts) under Vertigo + DCTCP,
// 25% background plus 40% incast of 16 × 40 KB, split into two domains run
// by the sharded PDES coordinator.
func ft8Sharded2(seed int64) core.Config {
	cfg := core.DefaultConfig(fabric.Vertigo, transport.DCTCP)
	cfg.Seed = seed
	cfg.SimTime = 15 * units.Millisecond
	cfg.Kind = core.FatTree
	cfg.FatTreeCfg = topo.PaperFatTree()
	cfg.IncastScale = 16
	cfg.IncastFlowSize = 40 * 1000
	cfg.BGLoad = 0.25
	cfg.SetIncastLoad(0.40)
	cfg.Shards = 2
	return cfg
}

// setupConfig is cfg cut to a 1 ns horizon: core.Run on it times building
// the topology, FIBs, fabric, hosts and workload generators up to the first
// event. Fault events fall beyond that horizon, so the schedule is dropped.
func setupConfig(cfg core.Config) core.Config {
	cfg.SimTime = units.Nanosecond
	cfg.Faults = nil
	cfg.HealDelay = 0
	return cfg
}

// buildTopology is the topology constructor core.Run calls for cfg.
func buildTopology(cfg core.Config) (*topo.Topology, error) {
	if cfg.Kind == core.FatTree {
		return topo.NewFatTree(cfg.FatTreeCfg)
	}
	return topo.NewLeafSpine(cfg.LeafSpineCfg)
}
