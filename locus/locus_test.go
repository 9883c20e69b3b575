package locus_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/locus"

	"repro/internal/netsim"
	"repro/internal/proc"
)

func TestQuickstartLifecycle(t *testing.T) {
	c, err := locus.Simple(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	alice := c.Site(1).Login("alice")
	if err := alice.WriteFile("/hello", []byte("transparent!")); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	bob := c.Site(3).Login("bob")
	data, err := bob.ReadFile("/hello")
	if err != nil || string(data) != "transparent!" {
		t.Fatalf("read %q, %v", data, err)
	}
}

func TestFullPartitionMergeStory(t *testing.T) {
	// The paper's core scenario end to end: normal operation,
	// partition, divergent activity in both halves, dynamic merge,
	// automatic reconciliation.
	c, err := locus.Simple(4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s1 := c.Site(1).Login("alice")
	s3 := c.Site(3).Login("bob")

	if err := s1.Mkdir("/proj"); err != nil {
		t.Fatal(err)
	}
	if err := s1.WriteFile("/proj/shared", []byte("base")); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	// A read handle held across the partition and closed before the
	// merge: the partition's cleanup must leave it closable, and the
	// merge below must not trip over it.
	held, err := c.Site(2).Login("carol").Open("/proj/shared", locus.Read)
	if err != nil {
		t.Fatal(err)
	}

	// Partition {1,2} / {3,4}; both halves keep working (§4.1).
	c.Partition([]locus.SiteID{1, 2}, []locus.SiteID{3, 4})
	if err := held.Close(); err != nil {
		t.Fatalf("close of a read handle held across the partition: %v", err)
	}
	if err := s1.WriteFile("/proj/a-side", []byte("from a")); err != nil {
		t.Fatal(err)
	}
	if err := s3.WriteFile("/proj/b-side", []byte("from b")); err != nil {
		t.Fatal(err)
	}
	// Conflicting update to the shared file.
	if err := s1.WriteFile("/proj/shared", []byte("a version")); err != nil {
		t.Fatal(err)
	}
	if err := s3.WriteFile("/proj/shared", []byte("b version")); err != nil {
		t.Fatal(err)
	}

	rep, err := c.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DirsMerged == 0 {
		t.Fatalf("report %+v: no directory merged", rep)
	}
	if rep.ConflictsReported != 1 {
		t.Fatalf("report %+v: want exactly the shared-file conflict", rep)
	}

	// Both sides' independent files visible everywhere.
	for _, site := range c.Sites() {
		sess := c.Site(site).Login("check")
		if d, err := sess.ReadFile("/proj/a-side"); err != nil || string(d) != "from a" {
			t.Fatalf("site %d a-side: %q %v", site, d, err)
		}
		if d, err := sess.ReadFile("/proj/b-side"); err != nil || string(d) != "from b" {
			t.Fatalf("site %d b-side: %q %v", site, d, err)
		}
	}
	// The conflicted file is blocked and reported by mail.
	if _, err := s1.ReadFile("/proj/shared"); !errors.Is(err, locus.ErrConflict) {
		t.Fatalf("conflicted read: %v", err)
	}
	msgs, err := s1.ReadMail()
	if err != nil || len(msgs) == 0 {
		t.Fatalf("conflict mail: %v %v", msgs, err)
	}

	// Resolve and verify.
	confs := c.Site(1).Recon.ListConflicts()
	if len(confs) != 1 {
		t.Fatalf("conflicts: %+v", confs)
	}
	if err := c.Site(1).Recon.ResolveKeep(confs[0].ID, 3); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	if d, err := s1.ReadFile("/proj/shared"); err != nil || string(d) != "b version" {
		t.Fatalf("after resolve: %q %v", d, err)
	}
}

func TestCrashRestartCycle(t *testing.T) {
	c, err := locus.Simple(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s1 := c.Site(1).Login("u")
	if err := s1.WriteFile("/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	c.Settle()

	c.Crash(3)
	if got := c.Site(1).Topo.Partition(); len(got) != 2 {
		t.Fatalf("partition after crash: %v", got)
	}
	// Work continues; site 3 misses it.
	if err := s1.WriteFile("/f", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restart(3); err != nil {
		t.Fatal(err)
	}
	if got := c.Site(1).Topo.Partition(); len(got) != 3 {
		t.Fatalf("partition after restart: %v", got)
	}
	d, err := c.Site(3).Login("u").ReadFile("/f")
	if err != nil || string(d) != "v2" {
		t.Fatalf("site 3 reads %q %v", d, err)
	}
}

func TestRemoteExecutionAndSignals(t *testing.T) {
	c, err := locus.NewCluster(locus.ClusterSpec{
		Sites: []locus.SiteSpec{
			{ID: 1, MachineType: "vax"},
			{ID: 2, MachineType: "pdp11"},
		},
		Filegroups: []locus.FilegroupSpec{{ID: 1, MountPath: "/", Replicas: []locus.SiteID{1, 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sess := c.Site(1).Login("u")
	if err := sess.Mkdir("/bin"); err != nil {
		t.Fatal(err)
	}
	if err := c.Site(1).FS.MkHidden(sess.Cred(), "/bin/svc", 0755); err != nil {
		t.Fatal(err)
	}
	if err := sess.WriteFile("/bin/svc@@/vax", []byte("go:svc\n")); err != nil {
		t.Fatal(err)
	}
	if err := sess.WriteFile("/bin/svc@@/pdp11", []byte("go:svc\n")); err != nil {
		t.Fatal(err)
	}
	c.Settle()

	started := make(chan proc.PID, 2)
	for _, id := range c.Sites() {
		site := c.Site(id)
		site.Proc.Register("svc", func(ctx *proc.Ctx) int {
			started <- ctx.Self.PID()
			<-ctx.Signals()
			return 7
		})
	}

	sess.SetExecSite(2)
	pid, err := sess.Run("/bin/svc")
	if err != nil {
		t.Fatal(err)
	}
	if pid.Site != 2 {
		t.Fatalf("ran at %v", pid)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("program did not start")
	}
	if err := sess.Signal(pid, proc.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if st := sess.Wait(pid); st.Code != 7 {
		t.Fatalf("status %+v", st)
	}
}

func TestTransactionsThroughSession(t *testing.T) {
	c, err := locus.Simple(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess := c.Site(1).Login("u")
	if err := sess.WriteFile("/acct/..", nil); err == nil {
		t.Fatal("expected bad name error")
	}
	if err := sess.Mkdir("/acct"); err != nil {
		t.Fatal(err)
	}
	if err := sess.WriteFile("/acct/a", []byte("100")); err != nil {
		t.Fatal(err)
	}
	if err := sess.WriteFile("/acct/b", []byte("0")); err != nil {
		t.Fatal(err)
	}

	tx := sess.Begin()
	if err := tx.WriteFile("/acct/a", []byte("60")); err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteFile("/acct/b", []byte("40")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	a, _ := c.Site(2).Login("u").ReadFile("/acct/a")
	b, _ := c.Site(2).Login("u").ReadFile("/acct/b")
	if string(a) != "60" || string(b) != "40" {
		t.Fatalf("a=%q b=%q", a, b)
	}
}

func TestHundredFilesAcrossSites(t *testing.T) {
	c, err := locus.Simple(5)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sessions := make([]*locus.Session, 0, 5)
	for _, id := range c.Sites() {
		sessions = append(sessions, c.Site(id).Login("u"))
	}
	for i := 0; i < 100; i++ {
		s := sessions[i%len(sessions)]
		if err := s.WriteFile(fmt.Sprintf("/f%03d", i), []byte(fmt.Sprintf("content %d", i))); err != nil {
			t.Fatalf("file %d: %v", i, err)
		}
	}
	c.Settle()
	for i := 0; i < 100; i++ {
		s := sessions[(i+3)%len(sessions)]
		d, err := s.ReadFile(fmt.Sprintf("/f%03d", i))
		if err != nil || string(d) != fmt.Sprintf("content %d", i) {
			t.Fatalf("file %d read from other site: %q %v", i, d, err)
		}
	}
}

// TestPartitionReleasesReaderParkedAtRemotePipeServer: a reader blocked
// in a pipe read at a remote server waits inside its call, on its own
// goroutine. When a partition takes its site away from the server, the
// topology change callback — §5.6 cleanup at the server — is the only
// thing that can release it, and it must: an error, never a hang.
func TestPartitionReleasesReaderParkedAtRemotePipeServer(t *testing.T) {
	c, err := locus.Simple(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writer := c.Site(1).Login("w")
	if err := writer.Mkfifo("/fifo"); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	// A writer keeps the pipe from reading EOF; its end names the server.
	w, err := writer.OpenPipe("/fifo", true)
	if err != nil {
		t.Fatal(err)
	}
	rsite := locus.SiteID(3)
	if w.Server() == rsite {
		rsite = 2
	}
	r, err := c.Site(rsite).Login("r").OpenPipe("/fifo", false)
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan struct{})
	c.Network().SetObserver(func(p netsim.Point) netsim.FaultAction {
		if p.Kind == netsim.PointRequest && p.Method == "proc.piperead" && p.From == rsite {
			close(sent)
		}
		return netsim.FaultNone
	})
	done := make(chan error, 1)
	go func() {
		_, err := r.Read(16)
		done <- err
	}()
	<-sent
	c.Network().SetObserver(nil)
	time.Sleep(10 * time.Millisecond) // let the handler park

	var rest []locus.SiteID
	for _, s := range c.Sites() {
		if s != rsite {
			rest = append(rest, s)
		}
	}
	c.Partition([]locus.SiteID{rsite}, rest)
	select {
	case err := <-done:
		if !errors.Is(err, proc.ErrSiteFailed) {
			t.Fatalf("parked read returned %v after the partition, want ErrSiteFailed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader still parked at the pipe server after Cluster.Partition")
	}
}
