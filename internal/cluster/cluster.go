// Package cluster assembles a complete simulated LOCUS network: the
// netsim substrate and, at every site, the filesystem kernel with the
// process, transaction, reconciliation and topology layers attached;
// the root is formatted. It is the only place a cluster is built and
// the only place its membership changes: Partition, Heal, Merge, Crash
// and Restart run the reconfiguration protocols of §5.4–5.5, whose
// callback runs the §5.6 cleanup in every layer. locus is a facade
// over it, and every integration test, example and benchmark goes
// through one of the two.
package cluster

import (
	"errors"
	"sort"

	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/proc"
	"repro/internal/recon"
	"repro/internal/storage"
	"repro/internal/topology"
	"repro/internal/txn"
)

// SiteID re-exports the site identifier type.
type SiteID = fs.SiteID

// Cluster is a running simulated LOCUS network.
type Cluster struct {
	Net   *netsim.Network
	Cfg   *fs.Config
	site  map[SiteID]*Site
	sites []SiteID // ascending
}

// Site is one machine running the LOCUS kernel stack.
type Site struct {
	// FS is the distributed filesystem kernel.
	FS *fs.Kernel
	// Proc is the process manager.
	Proc *proc.Manager
	// Txn is the nested-transaction manager.
	Txn *txn.Manager
	// Recon reconciles copies after a merge.
	Recon *recon.Reconciler
	// Topo runs the reconfiguration protocols.
	Topo *topology.Manager
}

// SiteSpec describes one site.
type SiteSpec struct {
	ID SiteID
	// MachineType names the CPU type for heterogeneous-load-module
	// resolution (defaults to "vax").
	MachineType string
}

// Options configures cluster construction.
type Options struct {
	// Sites lists the sites to boot, in boot order; a site need not
	// hold a pack (a pure using site). Empty means every pack site, in
	// configuration order.
	Sites []SiteSpec
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

// New builds and formats a cluster from a configuration (the first
// pack of each filegroup formats the root), then attaches the process,
// transaction, reconciliation and topology layers to every site, in
// boot order.
func New(cfg *fs.Config, opts Options) (*Cluster, error) {
	costs := netsim.DefaultCosts()
	boot := opts.Sites
	if len(boot) == 0 {
		seen := map[SiteID]bool{}
		for _, d := range cfg.Filegroups {
			for _, p := range d.Packs {
				if !seen[p.Site] {
					seen[p.Site] = true
					boot = append(boot, SiteSpec{ID: p.Site})
				}
			}
		}
	}
	nw := netsim.New(costs)
	cl := &Cluster{Net: nw, Cfg: cfg, site: make(map[SiteID]*Site)}
	kernels := make(map[SiteID]*fs.Kernel)
	for _, spec := range boot {
		s := spec.ID
		node := nw.AddSite(s)
		k, err := fs.BootSite(node, cfg, nw.Meter(), storage.Costs{
			DiskUs:  costs.DiskUs,
			PageCPU: costs.PageCPU,
		})
		if err != nil {
			nw.Close()
			return nil, err
		}
		kernels[s] = k
		cl.sites = append(cl.sites, s)
	}
	sort.Slice(cl.sites, func(i, j int) bool { return cl.sites[i] < cl.sites[j] })
	if err := fs.Format(kernels, cfg); err != nil {
		nw.Close()
		return nil, err
	}
	for _, spec := range boot {
		cl.site[spec.ID] = attach(kernels[spec.ID], spec.MachineType, cl.sites)
	}
	return cl, nil
}

// attach boots the layers above a site's kernel.
func attach(k *fs.Kernel, machineType string, all []SiteID) *Site {
	if machineType == "" {
		machineType = "vax"
	}
	node := k.Node()
	site := &Site{
		FS:    k,
		Proc:  proc.NewManager(node, k, machineType),
		Txn:   txn.NewManager(k),
		Recon: recon.New(k),
		Topo:  topology.New(node, all),
	}
	// A membership change runs the §5.6 cleanup procedure in every
	// kernel layer and requeues the propagations it stalled.
	site.Topo.OnChange(func(p []SiteID) {
		site.FS.CleanupAfterPartitionChange(p)
		site.Proc.CleanupAfterPartitionChange(p)
		site.Txn.CleanupAfterPartitionChange(p)
		site.FS.RequeueStalledPropagations()
	})
	// A crash additionally discards the volatile transaction tables
	// (proc registers its own crash hook in NewManager).
	node.OnCrash(site.Txn.CrashLocal)
	return site
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
func (c *Cluster) K(s SiteID) *fs.Kernel { return c.site[s].FS }

// Site returns a site's stack (nil if unknown).
func (c *Cluster) Site(s SiteID) *Site { return c.site[s] }

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

// Fsck runs the deep structural check across every site's on-disk
// state (see fs.FsckCluster). converged additionally requires all
// copies of every file to agree — valid only after a full heal, merge
// and settle. A nil result means clean.
func (c *Cluster) Fsck(converged bool) []fs.FsckFinding {
	kernels := make([]*fs.Kernel, len(c.sites))
	for i, s := range c.sites {
		kernels[i] = c.site[s].FS
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
			n += c.site[s].FS.DrainPropagation()
		}
		total += n
		if n == 0 {
			c.Net.Quiesce()
			pending := 0
			for _, s := range c.sites {
				pending += c.site[s].FS.PendingPropagations()
			}
			if pending == 0 {
				return total
			}
		}
	}
	return total
}

// Partition severs the network into groups, each a fully connected
// clique (a site in no group is isolated, a group of its own), and runs
// the partition protocol (§5.4) in every clique from its lowest up
// member; the new membership reaches every layer of each member through
// its topology callback.
func (c *Cluster) Partition(groups ...[]SiteID) {
	c.Net.PartitionGroups(groups...)
	c.runPartitions()
}

// runPartitions runs the partition protocol once in every clique of up
// sites, from the clique's lowest member.
func (c *Cluster) runPartitions() {
	done := make(map[SiteID]bool)
	for _, s := range c.UpSites() {
		if done[s] {
			continue
		}
		for _, x := range c.sites {
			done[x] = done[x] || c.Net.Connected(s, x)
		}
		c.site[s].Topo.RunPartitionProtocol()
	}
}

// Heal restores every link and runs the merge protocol (§5.5) from the
// lowest up site. It does not reconcile: Merge does.
func (c *Cluster) Heal() error {
	c.Net.HealAll()
	up := c.UpSites()
	if len(up) == 0 {
		return errors.New("cluster: no site up")
	}
	_, err := c.site[up[0]].Topo.RunMergeProtocol()
	return err
}

// Merge heals the network, settles propagation, and runs two
// reconciliation passes at every up site (each file is merged once, by
// its lowest storing site; the second pass reaches the files a
// directory merge exposed), settling after each. It returns the
// combined reconciliation report.
func (c *Cluster) Merge() (recon.Report, error) {
	var rep recon.Report
	if err := c.Heal(); err != nil {
		return rep, err
	}
	c.Settle()
	up := c.UpSites()
	for pass := 0; pass < 2; pass++ {
		for _, s := range up {
			r, err := c.site[s].Recon.ReconcileAll()
			rep = rep.Add(r)
			if err != nil {
				return rep, err
			}
		}
		c.Settle()
	}
	return rep, nil
}

// Crash takes a site down abruptly (volatile state lost, disk kept)
// and runs the partition protocol in every clique of survivors, as
// Partition does: the victim's own clique drops it, and a site a fault
// already crashed is announced to its survivors the same way.
func (c *Cluster) Crash(s SiteID) {
	c.Net.Crash(s)
	c.runPartitions()
}

// Restart brings a crashed site back (its in-core state was lost with
// the crash; its disk survived) and merges it in.
func (c *Cluster) Restart(s SiteID) (recon.Report, error) {
	c.Net.Restart(s)
	return c.Merge()
}
