// Package locus is the public API of this reproduction of the LOCUS
// distributed operating system (Walker, Popek, English, Kline, Thiel —
// SOSP 1983).
//
// A Cluster is a simulated network of sites, each running the full
// LOCUS kernel stack: the network-transparent distributed filesystem
// with replication and atomic commit, transparent remote processes
// with network-wide Unix IPC, nested transactions, the dynamic
// reconfiguration protocols, and automatic reconciliation of
// replicated directories and mailboxes after partitions heal.
//
// Quickstart:
//
//	c, _ := locus.NewCluster(locus.ClusterSpec{
//		Sites: []locus.SiteSpec{{ID: 1}, {ID: 2}, {ID: 3}},
//		Filegroups: []locus.FilegroupSpec{
//			{ID: 1, MountPath: "/", Replicas: []locus.SiteID{1, 2, 3}},
//		},
//	})
//	defer c.Close()
//	s := c.Site(1).Login("alice")
//	_ = s.WriteFile("/hello", []byte("transparent!"))
//	c.Settle() // let replication propagate
//	data, _ := c.Site(3).Login("bob").ReadFile("/hello")
package locus

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/proc"
	"repro/internal/recon"
	"repro/internal/storage"
	"repro/internal/topology"
	"repro/internal/txn"
	"repro/internal/vclock"
)

// SiteID identifies a site in the network.
type SiteID = vclock.SiteID

// FileID is a file's globally unique low-level name
// (<filegroup, inode>).
type FileID = storage.FileID

// Re-exported file types for creation calls.
const (
	TypeRegular  = storage.TypeRegular
	TypeDatabase = storage.TypeDatabase
	TypeMailbox  = storage.TypeMailbox
)

// Open modes.
const (
	Read   = fs.ModeRead
	Modify = fs.ModeModify
)

// Common errors, re-exported from the kernel layers.
var (
	ErrNotFound      = fs.ErrNotFound
	ErrExists        = fs.ErrExists
	ErrBusy          = fs.ErrBusy
	ErrConflict      = fs.ErrConflict
	ErrStale         = fs.ErrStale
	ErrNoCSS         = fs.ErrNoCSS
	ErrNoStorageSite = fs.ErrNoStorageSite
	ErrIsDir         = fs.ErrIsDir
)

// SiteSpec describes one site.
type SiteSpec struct {
	ID SiteID
	// MachineType names the CPU type for heterogeneous-load-module
	// resolution (defaults to "vax").
	MachineType string
}

// FilegroupSpec describes one logical filegroup and its replication.
type FilegroupSpec struct {
	ID storage.FilegroupID
	// MountPath is "/" for the root filegroup.
	MountPath string
	// Replicas lists the sites holding physical containers (packs).
	Replicas []SiteID
}

// ClusterSpec configures a cluster.
type ClusterSpec struct {
	Sites      []SiteSpec
	Filegroups []FilegroupSpec
}

// Cluster is a running LOCUS network: the internal/cluster assembly
// (network, kernels, format) with the process, transaction,
// reconciliation and topology layers attached to every site.
type Cluster struct {
	cl    *cluster.Cluster
	sites map[SiteID]*Site
}

// Site is one machine running the LOCUS kernel stack.
type Site struct {
	id      SiteID
	cluster *Cluster

	// FS is the distributed filesystem kernel.
	FS *fs.Kernel
	// Proc is the process manager.
	Proc *proc.Manager
	// Txn is the nested-transaction manager.
	Txn *txn.Manager
	// Recon is the reconciliation driver.
	Recon *recon.Reconciler
	// Topo runs the reconfiguration protocols.
	Topo *topology.Manager
}

// ID returns the site id.
func (s *Site) ID() SiteID { return s.id }

// NewCluster builds, boots, and formats a cluster.
func NewCluster(spec ClusterSpec) (*Cluster, error) {
	if len(spec.Sites) == 0 {
		return nil, errors.New("locus: no sites")
	}
	var fgs []fs.FilegroupDesc
	for _, f := range spec.Filegroups {
		fgs = append(fgs, fs.FilegroupDesc{FG: f.ID, MountPath: f.MountPath, Packs: cluster.Packs(f.Replicas)})
	}
	cfg, err := fs.NewConfig(fgs)
	if err != nil {
		return nil, err
	}
	var opts cluster.Options
	for _, ss := range spec.Sites {
		opts.Sites = append(opts.Sites, ss.ID)
	}
	cl, err := cluster.New(cfg, opts)
	if err != nil {
		return nil, err
	}
	c := &Cluster{cl: cl, sites: make(map[SiteID]*Site)}
	for _, ss := range spec.Sites {
		k := cl.K(ss.ID)
		mt := ss.MachineType
		if mt == "" {
			mt = "vax"
		}
		site := &Site{
			id:      ss.ID,
			cluster: c,
			FS:      k,
			Proc:    proc.NewManager(k.Node(), k, mt),
			Txn:     txn.NewManager(k),
			Recon:   recon.New(k),
			Topo:    topology.New(k.Node(), cl.Sites()),
		}
		// Membership changes drive the §5.6 cleanup procedure in every
		// kernel layer.
		site.Topo.OnChange(func(p []SiteID) {
			site.FS.CleanupAfterPartitionChange(p)
			site.Proc.CleanupAfterPartitionChange(p)
			site.Txn.CleanupAfterPartitionChange(p)
			site.FS.RequeueStalledPropagations()
		})
		// A crash additionally discards the volatile transaction tables
		// (proc registers its own crash hook in NewManager).
		k.Node().OnCrash(site.Txn.CrashLocal)
		c.sites[ss.ID] = site
	}
	return c, nil
}

// Simple builds an n-site cluster (ids 1..n) with one filegroup
// replicated everywhere and mounted at "/".
func Simple(n int) (*Cluster, error) {
	var sites []SiteSpec
	var reps []SiteID
	for i := 1; i <= n; i++ {
		sites = append(sites, SiteSpec{ID: SiteID(i)})
		reps = append(reps, SiteID(i))
	}
	return NewCluster(ClusterSpec{
		Sites:      sites,
		Filegroups: []FilegroupSpec{{ID: 1, MountPath: "/", Replicas: reps}},
	})
}

// Close shuts the cluster down.
func (c *Cluster) Close() { c.cl.Net.Close() }

// Site returns a site by id (nil if unknown).
func (c *Cluster) Site(id SiteID) *Site { return c.sites[id] }

// Sites returns all site ids, ascending.
func (c *Cluster) Sites() []SiteID { return c.cl.Sites() }

// SetFeatures installs one fs feature selection at every site.
func (c *Cluster) SetFeatures(f fs.Features) { c.cl.SetFeatures(f) }

// Network exposes the underlying simulated network (for tests,
// benchmarks, and fault injection).
func (c *Cluster) Network() *netsim.Network { return c.cl.Net }

// Stats returns a snapshot of network traffic and simulated costs.
func (c *Cluster) Stats() netsim.Snapshot { return c.cl.Net.Stats() }

// Fsck runs the deep structural check (page leaks, orphan inodes,
// dangling directory entries, corrupt directories) across every site's
// on-disk state. With converged=true — valid only after a full heal,
// merge, and settle — it additionally requires all copies of every file
// to agree (equal version vectors, identical content, no unresolved
// conflict flags). A nil result means clean.
func (c *Cluster) Fsck(converged bool) []fs.FsckFinding { return c.cl.Fsck(converged) }

// Settle drains all background propagation until quiescent, returning
// the number of pulls completed.
func (c *Cluster) Settle() int { return c.cl.Settle() }

// Partition severs the network into the given groups and runs the
// partition protocol in each; every site's kernel runs the cleanup
// procedure via the topology callback.
func (c *Cluster) Partition(groups ...[]SiteID) {
	c.cl.Net.PartitionGroups(groups...)
	for _, g := range groups {
		if len(g) > 0 {
			c.sites[g[0]].Topo.RunPartitionProtocol()
		}
	}
}

// Merge heals the physical network, runs the merge protocol from the
// lowest up site, reconciles every filegroup, and settles propagation.
// It returns the combined reconciliation report.
func (c *Cluster) Merge() (recon.Report, error) {
	c.cl.Net.HealAll()
	up := c.cl.UpSites()
	var rep recon.Report
	if len(up) == 0 {
		return rep, errors.New("locus: no site up")
	}
	if _, err := c.sites[up[0]].Topo.RunMergeProtocol(); err != nil {
		return rep, err
	}
	c.Settle()
	// Reconciliation runs at every site; each file is merged once (by
	// its lowest storing site). Two passes let directory merges expose
	// files that then propagate.
	for pass := 0; pass < 2; pass++ {
		for _, id := range up {
			r, err := c.sites[id].Recon.ReconcileAll()
			rep = rep.Add(r)
			if err != nil {
				return rep, err
			}
		}
		c.Settle()
	}
	return rep, nil
}

// Crash abruptly takes a site down (volatile state lost, disk kept);
// the survivors run the partition protocol.
func (c *Cluster) Crash(id SiteID) {
	c.cl.Net.Crash(id)
	if up := c.cl.UpSites(); len(up) > 0 {
		c.sites[up[0]].Topo.RunPartitionProtocol()
	}
}

// Restart brings a crashed site back and merges it into the partition.
func (c *Cluster) Restart(id SiteID) (recon.Report, error) {
	c.cl.Net.Restart(id)
	return c.Merge()
}

// String describes the cluster.
func (c *Cluster) String() string {
	return fmt.Sprintf("locus.Cluster{%d sites, %d filegroups}", len(c.sites), len(c.cl.Cfg.Filegroups))
}
