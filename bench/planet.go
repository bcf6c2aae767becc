package main

import (
	"fmt"
	"time"

	"perfcloud/internal/cloud"
	"perfcloud/internal/experiments"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
)

// planetSize sizes the planet workload.
type planetSize struct {
	Servers, VMs, Hot, Jobs int
}

// paperPlanet is examples/planet_scale's fleet of 10,000 servers with 16
// hot ones and two terasorts, at 250,000 VMs instead of its one million:
// the same layers do the same kinds of work, in 0.7 GB of memory instead
// of 2.3 GB.
func paperPlanet() planetSize { return planetSize{Servers: 10000, VMs: 250000, Hot: 16, Jobs: 2} }

// planetRep runs the planet_scale scenario: a Hadoop testbed on the hot
// servers, the cold rest of the fleet provisioned and filled with idle
// tenant VMs through cloud.Manager.Boot, then terasorts on the hot region
// with a fleet telemetry sample after each. Its outputs are the JCTs, the
// fleet's telemetry and the cluster's fast-path counters.
func planetRep(sz planetSize) func(*probe, int64) repOut {
	return func(p *probe, seed int64) repOut {
		var tb *experiments.Testbed
		p.setupTime("experiments.testbed_ms", func() {
			tb = experiments.NewTestbed(experiments.TestbedConfig{Seed: seed, Servers: sz.Hot, WorkersPerServer: 8})
		})
		p.setupTime("dfs.input_ms", func() { tb.MustInput("input", 640<<20) })
		p.setupTime("cloud.provision_ms", func() { tb.CM.ProvisionServers(sz.Servers - sz.Hot) })
		var err error
		booted := 0
		p.setupTime("cloud.boot_ms", func() {
			for i := tb.Clus.NumVMs(); i < sz.VMs && err == nil; i++ {
				_, err = tb.CM.Boot(cloud.VMSpec{Name: fmt.Sprintf("tenant-%07d", i)})
				booted++
			}
		})
		p.add("cloud.booted_vms", float64(booted))
		if err != nil {
			return failed(err)
		}
		reg, series := obs.NewRegistry(), obs.NewSeriesRegistry(0)
		var ft *experiments.FleetTelemetry
		p.time("telemetry.sample_ms", func() {
			ft = tb.FleetTelemetry(reg, series)
			ft.Sample(tb.Eng.Clock().Seconds())
		})
		st := p.stepper(tb)
		jcts := make([]float64, sz.Jobs)
		for i := range jcts {
			var job *mapreduce.Job
			p.time("mapreduce_spark.submit_ms", func() {
				job, err = tb.JT.Submit(mapreduce.Terasort("input", 10), tb.Eng.Clock().Seconds())
			})
			if err != nil {
				return failed(err)
			}
			if !st.RunUntil(job.Done, time.Hour) {
				return failed(fmt.Errorf("terasort %d stuck in state %v", i, job.State()))
			}
			jcts[i] = job.JCT()
			p.time("telemetry.sample_ms", func() { ft.Sample(tb.Eng.Clock().Seconds()) })
		}
		p.done(tb)
		p.stop()
		if n := tb.Clus.NumVMs(); n != sz.VMs {
			return failed(fmt.Errorf("fleet has %d VMs, want %d", n, sz.VMs))
		}
		d := newDigest()
		d.f64(jcts...)
		fp := tb.Clus.FastPathStats()
		d.u64(fp.QuiescentSkips, fp.SteadyReuses, fp.Rebuilds, fp.ShardSkips, fp.StrideSkips)
		if err := reg.WritePrometheus(d.h); err != nil {
			return failed(err)
		}
		if err := series.WriteJSON(d.h, 0, 0); err != nil {
			return failed(err)
		}
		return repOut{calls: []call{{digest: d.sum()}}}
	}
}
