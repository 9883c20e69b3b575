// Package cluster assembles a complete simulated LOCUS network: the
// netsim substrate, one filesystem kernel per site, formatting, and
// convenience controls for partitioning, crashing, and settling
// background propagation. It is the only place a cluster is built:
// locus.NewCluster layers the process, transaction, reconciliation and
// topology managers on the kernels it returns, and every integration
// test, example and benchmark goes through one of the two.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// SiteID re-exports the site identifier type.
type SiteID = fs.SiteID

// Cluster is a running simulated LOCUS network.
type Cluster struct {
	Net     *netsim.Network
	Kernels map[SiteID]*fs.Kernel
	Cfg     *fs.Config
	sites   []SiteID // ascending
}

// Options configures cluster construction.
type Options struct {
	// Sites lists the sites to boot, in boot order; a site need not
	// hold a pack (a pure using site). Empty means every pack site, in
	// configuration order.
	Sites []SiteID
}

// Packs lays out one pack per site, in order, each with a 1e6-wide
// private inode allocation range.
func Packs(sites []SiteID) []fs.PackDesc {
	packs := make([]fs.PackDesc, len(sites))
	for i, s := range sites {
		packs[i] = fs.PackDesc{
			Site: s,
			Lo:   storage.InodeNum(i*1_000_000 + 1),
			Hi:   storage.InodeNum((i + 1) * 1_000_000),
		}
	}
	return packs
}

// SimpleConfig builds a one-filegroup configuration replicated across
// nSites sites (site ids 1..n), mounted at "/".
func SimpleConfig(nSites int) *fs.Config {
	sites := make([]SiteID, nSites)
	for i := range sites {
		sites[i] = SiteID(i + 1)
	}
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/", Packs: Packs(sites)}})
	if err != nil {
		// invariant: a generated single-filegroup config is valid by
		// construction; NewConfig rejecting it is a programming error.
		panic(err)
	}
	return cfg
}

// New builds and formats a cluster from a configuration; the first
// pack of each filegroup formats the root.
func New(cfg *fs.Config, opts Options) (*Cluster, error) {
	costs := netsim.DefaultCosts()
	boot := opts.Sites
	if len(boot) == 0 {
		seen := map[SiteID]bool{}
		for _, d := range cfg.Filegroups {
			for _, p := range d.Packs {
				if !seen[p.Site] {
					seen[p.Site] = true
					boot = append(boot, p.Site)
				}
			}
		}
	}
	nw := netsim.New(costs)
	cl := &Cluster{Net: nw, Kernels: make(map[SiteID]*fs.Kernel), Cfg: cfg}
	for _, s := range boot {
		node := nw.AddSite(s)
		k, err := fs.BootSite(node, cfg, nw.Meter(), storage.Costs{
			DiskUs:  costs.DiskUs,
			PageCPU: costs.PageCPU,
		})
		if err != nil {
			nw.Close()
			return nil, err
		}
		cl.Kernels[s] = k
		cl.sites = append(cl.sites, s)
	}
	sort.Slice(cl.sites, func(i, j int) bool { return cl.sites[i] < cl.sites[j] })
	if err := fs.Format(cl.Kernels, cfg); err != nil {
		nw.Close()
		return nil, err
	}
	return cl, nil
}

// MustNew is New, panicking on error (test/bench setup).
func MustNew(cfg *fs.Config, opts Options) *Cluster {
	cl, err := New(cfg, opts)
	if err != nil {
		panic(err)
	}
	return cl
}

// Simple builds an n-site single-filegroup cluster.
func Simple(n int) *Cluster { return MustNew(SimpleConfig(n), Options{}) }

// Close shuts the network down.
func (c *Cluster) Close() { c.Net.Close() }

// K returns the kernel for a site.
func (c *Cluster) K(s SiteID) *fs.Kernel { return c.Kernels[s] }

// Sites returns all site ids in ascending order.
func (c *Cluster) Sites() []SiteID { return append([]SiteID(nil), c.sites...) }

// UpSites returns the ids of the sites that are not crashed, ascending.
func (c *Cluster) UpSites() []SiteID {
	var up []SiteID
	for _, s := range c.sites {
		if c.Net.Up(s) {
			up = append(up, s)
		}
	}
	return up
}

// SetFeatures installs one feature selection at every site, in
// ascending site order (switching leases off sends).
func (c *Cluster) SetFeatures(f fs.Features) {
	for _, s := range c.sites {
		c.Kernels[s].SetFeatures(f)
	}
}

// Fsck runs the deep structural check across every site's on-disk
// state (see fs.FsckCluster). converged additionally requires all
// copies of every file to agree — valid only after a full heal, merge
// and settle. A nil result means clean.
func (c *Cluster) Fsck(converged bool) []fs.FsckFinding {
	kernels := make([]*fs.Kernel, len(c.sites))
	for i, s := range c.sites {
		kernels[i] = c.Kernels[s]
	}
	return fs.FsckCluster(kernels, fs.FsckOptions{Converged: converged})
}

// Settle drains every kernel's propagation queue, in ascending site
// order (a drain sends, so the order is part of the wire schedule),
// until the whole network is quiescent. Returns the number of
// propagation pulls completed.
func (c *Cluster) Settle() int {
	total := 0
	for pass := 0; pass < 100; pass++ {
		c.Net.Quiesce()
		n := 0
		for _, s := range c.sites {
			n += c.Kernels[s].DrainPropagation()
		}
		total += n
		if n == 0 {
			c.Net.Quiesce()
			pending := 0
			for _, s := range c.sites {
				pending += c.Kernels[s].PendingPropagations()
			}
			if pending == 0 {
				return total
			}
		}
	}
	return total
}

// Partition splits the network into groups and installs the matching
// partition view in every kernel (what the reconfiguration protocols of
// internal/topology do automatically; tests drive it directly for
// determinism).
func (c *Cluster) Partition(groups ...[]SiteID) {
	c.Net.PartitionGroups(groups...)
	for _, g := range groups {
		for _, s := range g {
			if k := c.Kernels[s]; k != nil {
				k.CleanupAfterPartitionChange(g)
			}
		}
	}
}

// Heal restores full connectivity and installs the full-membership view
// everywhere. Reconciliation (internal/recon) must run afterwards to
// merge divergent copies; stalled propagations are requeued.
func (c *Cluster) Heal() {
	c.Net.HealAll()
	up := c.UpSites()
	for _, s := range up {
		k := c.Kernels[s]
		k.CleanupAfterPartitionChange(up)
		k.RequeueStalledPropagations()
	}
}

// Crash takes a site down; surviving kernels get the shrunken view.
func (c *Cluster) Crash(s SiteID) {
	c.Net.Crash(s)
	up := c.UpSites()
	for _, x := range up {
		c.Kernels[x].CleanupAfterPartitionChange(up)
	}
}

// Restart brings a crashed site back and rejoins it to the full
// partition (in-core state at the site was lost with the crash; its
// disk survived).
func (c *Cluster) Restart(s SiteID) {
	c.Net.Restart(s)
	c.Heal()
}

// String describes the cluster briefly.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster{%d sites, %d filegroups}", len(c.sites), len(c.Cfg.Filegroups))
}
