package cluster

// The scan reference: the cluster's original O(fleet) implementations,
// kept as the oracle of the indexed fleet. The read-only *Scan queries
// answer each public query by walking every machine; assertIndexMatchesScan
// holds the indexed answers to them. The scan* helpers mutate a plain
// cluster the way the original code did — first-Off reuse in creation
// order, retirement of the least-loaded On machines after a sort,
// per-machine dispatch and per-machine ticks — so that
// TestDifferentialHeapVsScanTwinClusters can run a scan-mode twin in
// lockstep with an indexed cluster. A twin driven only through these
// helpers never touches the pool aggregates (onPowerW, aggIdle, aggDyn);
// its energy lives entirely in the machine automata.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/machine"
	"repro/internal/power"
)

// activeCountScan is the original O(pool) implementation of ActiveCount.
func (c *Cluster) activeCountScan(arch string) int {
	n := 0
	p := c.pools[arch]
	if p == nil {
		return 0
	}
	for _, nd := range p.nodes {
		if s := nd.m.State(); s == machine.On || s == machine.Booting {
			n++
		}
	}
	return n
}

// onNodesByLoadScan returns the On machines of one pool sorted by
// ascending load — the original retirement-selection implementation (the
// indexed path reads the shape invariant instead and never sorts).
func (c *Cluster) onNodesByLoadScan(p *pool) []*node {
	var out []*node
	for _, nd := range p.nodes {
		if nd.m.State() == machine.On {
			out = append(out, nd)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].m.Load() < out[j].m.Load() })
	return out
}

// capacityScan is the original O(fleet) implementation of Capacity.
func (c *Cluster) capacityScan() float64 {
	var cap float64
	for _, p := range c.poolList {
		for _, nd := range p.nodes {
			if nd.m.State() == machine.On {
				cap += p.arch.MaxPerf
			}
		}
	}
	return cap
}

// reconfiguringScan is the original O(fleet) implementation of
// Reconfiguring.
func (c *Cluster) reconfiguringScan() bool {
	for _, p := range c.poolList {
		for _, nd := range p.nodes {
			if nd.m.Transitioning() {
				return true
			}
		}
	}
	return false
}

// pendingTransitionScan is the original O(fleet) implementation of
// PendingTransition.
func (c *Cluster) pendingTransitionScan() float64 {
	var max float64
	for _, p := range c.poolList {
		for _, nd := range p.nodes {
			if r := nd.m.Remaining(); r > max {
				max = r
			}
		}
	}
	return max
}

// nextTransitionEndScan is the original O(fleet) implementation of
// NextTransitionEnd.
func (c *Cluster) nextTransitionEndScan() float64 {
	var min float64
	for _, p := range c.poolList {
		for _, nd := range p.nodes {
			if r := nd.m.Remaining(); r > 0 && (min == 0 || r < min) {
				min = r
			}
		}
	}
	return min
}

// distributeScan is the original per-machine implementation of Distribute.
func (c *Cluster) distributeScan(load float64) (served float64, err error) {
	remaining := load
	for _, p := range c.poolList {
		for _, nd := range p.nodes {
			if nd.m.State() != machine.On {
				continue
			}
			share := math.Min(remaining, p.arch.MaxPerf)
			if err := nd.m.SetLoad(share); err != nil {
				return served, err
			}
			served += share
			remaining -= share
		}
	}
	return served, nil
}

// scanCurrentPower is the original per-machine implementation of
// CurrentPower.
func (c *Cluster) scanCurrentPower() power.Watts {
	var pw power.Watts
	for _, p := range c.poolList {
		for _, nd := range p.nodes {
			pw += nd.m.CurrentPower()
		}
	}
	return pw
}

// scanProvision is the original provision: the first Off machine in
// creation order, else a new machine. With no Off machine the free list is
// empty, so provision creates one.
func (c *Cluster) scanProvision(p *pool) (*node, error) {
	for _, nd := range p.nodes {
		if nd.m.State() == machine.Off {
			for i, x := range p.free {
				if x == nd {
					p.free = append(p.free[:i], p.free[i+1:]...)
					break
				}
			}
			return nd, nil
		}
	}
	return c.provision(p)
}

// scanSetTarget is SetTarget as the original code ran it: active counts by
// scan, first-Off reuse, and retirement of the least-loaded On machines
// after a sort.
func (c *Cluster) scanSetTarget(target map[string]int) (switchedOn, switchedOff int, err error) {
	for name, want := range target {
		if _, ok := c.byName[name]; !ok {
			return switchedOn, switchedOff, fmt.Errorf("cluster: unknown architecture %q", name)
		}
		if want < 0 {
			return switchedOn, switchedOff, fmt.Errorf("cluster: negative target %d for %q", want, name)
		}
	}
	for _, p := range c.poolList {
		want := target[p.arch.Name]
		have := c.activeCountScan(p.arch.Name)
		switch {
		case have < want:
			for have < want {
				nd, perr := c.scanProvision(p)
				if perr != nil {
					return switchedOn, switchedOff, perr
				}
				if c.faultProb > 0 && c.faultRng.Float64() < c.faultProb {
					nd.m.InjectBootFailure()
				}
				if perr := nd.m.PowerOn(); perr != nil {
					return switchedOn, switchedOff, perr
				}
				c.startedTransition(p, nd)
				switchedOn++
				have++
			}
		case have > want:
			for _, nd := range c.onNodesByLoadScan(p) {
				if have <= want {
					break
				}
				if perr := nd.m.PowerOff(); perr != nil {
					return switchedOn, switchedOff, perr
				}
				c.startedShutdown(p, nd)
				switchedOff++
				have--
			}
			// Remove the victims from the On list (scan mode keeps no
			// positional invariant, so compact generically).
			kept := p.on[:0]
			for _, nd := range p.on {
				if nd.m.State() == machine.On {
					kept = append(kept, nd)
				}
			}
			p.on = kept
		}
	}
	return switchedOn, switchedOff, nil
}

// scanTick is Tick as the original code ran it: every machine, in creation
// order, through its own automaton.
func (c *Cluster) scanTick(dt float64) (power.Joules, error) {
	if dt < 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return 0, fmt.Errorf("cluster: invalid tick duration %v", dt)
	}
	c.now += dt
	var total power.Joules
	for _, p := range c.poolList {
		for _, nd := range p.nodes {
			e, err := nd.m.Tick(dt)
			if err != nil {
				return total, err
			}
			total += e
		}
		c.foldCompletions(p)
	}
	c.pruneTransitions()
	return total, nil
}
