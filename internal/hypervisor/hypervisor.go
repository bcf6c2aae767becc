// Package hypervisor is the libvirt-like facade PerfCloud's node manager
// uses on each physical server: listing domains (VMs), reading per-domain
// block-I/O, CPU and hardware-counter statistics, and applying resource
// caps — the CPU cap through vcpu_quota and the I/O caps through the
// blkio subsystem's throttling policy (§III-D2).
//
// The facade deliberately exposes only what the paper's agent consumes,
// keeping the VM a black box: no workload state, no application metrics.
package hypervisor

import (
	"fmt"

	"perfcloud/internal/cgroup"
	"perfcloud/internal/cluster"
)

// ErrNoDomain is returned for operations on unknown domain ids.
type ErrNoDomain struct{ ID string }

func (e ErrNoDomain) Error() string { return fmt.Sprintf("hypervisor: no domain %q", e.ID) }

// Hypervisor wraps one physical server.
type Hypervisor struct {
	server *cluster.Server
}

// New creates a facade over a server.
func New(s *cluster.Server) *Hypervisor { return &Hypervisor{server: s} }

// ServerID returns the id of the wrapped server.
func (h *Hypervisor) ServerID() string { return h.server.ID() }

// PlacementEpoch returns the server's placement-change counter. While it
// is unchanged, EachDomainStats reports the same domains in the same
// order, so samplers may reuse slice-indexed per-domain state instead of
// re-resolving domain ids every interval.
func (h *Hypervisor) PlacementEpoch() uint64 { return h.server.PlacementEpoch() }

// NumDomains returns how many VMs the server hosts.
func (h *Hypervisor) NumDomains() int { return h.server.NumVMs() }

// ListDomains returns the ids of all VMs on the server.
func (h *Hypervisor) ListDomains() []string {
	out := make([]string, 0, h.server.NumVMs())
	h.EachDomain(func(id string) { out = append(out, id) })
	return out
}

// EachDomain calls fn once per domain id in placement order — the
// non-allocating ListDomains for callers that run every interval.
func (h *Hypervisor) EachDomain(fn func(id string)) {
	h.server.EachVM(func(v *cluster.VM) {
		fn(v.ID())
	})
}

// EachDomainStats calls fn once per domain, in placement order, with the
// domain id and its cumulative cgroup counters. It is the allocation-lean
// path samplers use instead of ListDomains + per-id DomainStats lookups.
func (h *Hypervisor) EachDomainStats(fn func(id string, c cgroup.Counters)) {
	h.server.EachVM(func(v *cluster.VM) {
		fn(v.ID(), v.Cgroup().Snapshot())
	})
}

func (h *Hypervisor) domain(id string) (*cluster.VM, error) {
	if v := h.server.FindVM(id); v != nil {
		return v, nil
	}
	return nil, ErrNoDomain{ID: id}
}

// DomainStats returns the cumulative cgroup counters for a domain:
// blkio.io_serviced / io_service_bytes / io_wait_time, cpuacct usage and
// the perf_event counters, all as libvirt + perf would report them.
func (h *Hypervisor) DomainStats(id string) (cgroup.Counters, error) {
	v, err := h.domain(id)
	if err != nil {
		return cgroup.Counters{}, err
	}
	return v.Cgroup().Snapshot(), nil
}

// SetVCPUQuota applies a CPU hard cap in cores (0 clears the cap).
func (h *Hypervisor) SetVCPUQuota(id string, cores float64) error {
	v, err := h.domain(id)
	if err != nil {
		return err
	}
	if cores < 0 {
		return fmt.Errorf("hypervisor: negative vcpu quota %v for %q", cores, id)
	}
	v.Cgroup().SetCPUCores(cores)
	v.Server().MarkDirty()
	return nil
}

// SetBlkioThrottleIOPS applies a read-IOPS cap (0 clears the cap).
func (h *Hypervisor) SetBlkioThrottleIOPS(id string, iops float64) error {
	v, err := h.domain(id)
	if err != nil {
		return err
	}
	if iops < 0 {
		return fmt.Errorf("hypervisor: negative iops cap %v for %q", iops, id)
	}
	v.Cgroup().SetReadIOPS(iops)
	v.Server().MarkDirty()
	return nil
}

// SetBlkioThrottleBPS applies a read bytes-per-second cap (0 clears it).
func (h *Hypervisor) SetBlkioThrottleBPS(id string, bps float64) error {
	v, err := h.domain(id)
	if err != nil {
		return err
	}
	if bps < 0 {
		return fmt.Errorf("hypervisor: negative bps cap %v for %q", bps, id)
	}
	v.Cgroup().SetReadBPS(bps)
	v.Server().MarkDirty()
	return nil
}

// Throttle returns the caps currently applied to a domain.
func (h *Hypervisor) Throttle(id string) (cgroup.Throttle, error) {
	v, err := h.domain(id)
	if err != nil {
		return cgroup.Throttle{}, err
	}
	return v.Cgroup().Throttle(), nil
}

// ClearThrottle removes all caps from a domain.
func (h *Hypervisor) ClearThrottle(id string) error {
	v, err := h.domain(id)
	if err != nil {
		return err
	}
	v.Cgroup().SetThrottle(cgroup.Throttle{})
	v.Server().MarkDirty()
	return nil
}
