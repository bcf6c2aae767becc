package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"perfcloud/internal/core"
	"perfcloud/internal/experiments"
)

var workloadNames = []string{"mix", "variability", "planet", "daemon"}

// defaultSeed is the default -seed of perfbench and perfcloudd. The figure
// workloads and daemon run every rep at it, as those commands run by
// default. It also keeps their host time steady: Fig 11's follows the job
// sizes its seed draws (0.47–1.0 s a call over seeds 1–8 on a 2-core
// host), and a new seed on every daemon rep grows sim's process-wide seed
// cache, and the rep times with it, for the first thousand reps of a run.
const defaultSeed = 42

// workload is one benchmark input family. README.md says why each exists.
type workload struct {
	// rep runs one rep, a fixed unit of simulated work, for a seed, and
	// times its layers into p.
	rep func(p *probe, seed int64) repOut
	// seed, when not 0, is the seed of every rep, whatever -seed says, so
	// every rep must reproduce the warm-up's outputs. Otherwise rep i of a
	// run uses -seed + i.
	seed int64
	// figure: the rep is one figure call, which has no set-up of its own to
	// time, so setup_s is the warm-up's wall time: the cold first call,
	// which pays every one-time cost of the process.
	figure bool
	// observers: the traced run also measures an observers-off rep.
	observers bool
}

// repOut is what one rep produced.
type repOut struct {
	// calls has one entry per checked operation.
	calls []call
	// obs digests the observer outputs (daemon), which an observers-off
	// rep does not produce.
	obs uint64
	// under30 is PerfCloud's share of jobs that finished within 30% of
	// their interference-free JCT (mix).
	under30 float64
}

// call is one operation's outcome: the digest of its simulated outputs,
// or the error that stopped it.
type call struct {
	digest uint64
	err    error
}

func failed(err error) repOut { return repOut{calls: []call{{err: err}}} }

// sizes holds every workload's scale; tests shrink it.
type sizes struct {
	mix         experiments.LargeScaleConfig
	variability experiments.VariabilityConfig
	planet      planetSize
	daemon      daemonSize
}

func fullSizes() sizes {
	return sizes{mix: paperMix(), variability: paperVariability(), planet: paperPlanet(), daemon: daemonSize{Duration: daemonDuration}}
}

func newWorkload(name string, sz sizes) workload {
	switch name {
	case "mix":
		return workload{rep: mixRep(sz.mix), seed: defaultSeed, figure: true}
	case "variability":
		return workload{rep: variabilityRep(sz.variability), seed: defaultSeed, figure: true}
	case "planet":
		return workload{rep: planetRep(sz.planet)}
	case "daemon":
		return workload{rep: daemonRep(sz.daemon), seed: defaultSeed, observers: true}
	}
	panic("bench: unknown workload " + name)
}

// digest hashes simulated outputs bit for bit.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) f64(xs ...float64) {
	for _, x := range xs {
		d.u64(math.Float64bits(x))
	}
}

func (d digest) u64(xs ...uint64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], x)
		d.h.Write(b[:])
	}
}

func (d digest) str(s string) {
	io.WriteString(d.h, s)
	d.h.Write([]byte{0})
}

func (d digest) sum() uint64 { return d.h.Sum64() }

// caps hashes every cap each node manager had in force after each control
// interval, in server and VM order.
func (d digest) caps(sys *core.System) {
	each := func(m map[string]float64) {
		vms := make([]string, 0, len(m))
		for vm := range m {
			vms = append(vms, vm)
		}
		sort.Strings(vms)
		for _, vm := range vms {
			d.str(vm)
			d.f64(m[vm])
		}
	}
	sys.EachManager(func(nm *core.NodeManager) {
		d.str(nm.ServerID())
		for _, e := range nm.Trace() {
			d.f64(e.TimeSec)
			each(e.IOCaps)
			each(e.CPUCaps)
		}
	})
}
