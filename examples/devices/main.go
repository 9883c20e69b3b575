// Devices & operations: transparent remote devices (§2.4.2),
// sequential readahead (§2.3.3) and demand recovery (§4.4) — the
// operational machinery around the core filesystem.
package main

import (
	"bytes"
	"fmt"
	"log"
	"sync"

	"repro/internal/fs"
	"repro/internal/storage"
	"repro/locus"
)

// console is a character device driver: a write-only operator console.
type console struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *console) DevRead(max int) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.buf.String()
	c.buf.Reset()
	if max > 0 && max < len(out) {
		out = out[:max]
	}
	return []byte(out), nil
}

func (c *console) DevWrite(data []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(data)
}

func main() {
	c, err := locus.Simple(3)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	op := c.Site(1).Login("operator")

	// --- Transparent remote devices: the operator console is wired to
	// site 3, but any site writes to it by name.
	fmt.Println("== remote devices ==")
	cons := &console{}
	c.Site(3).Proc.RegisterDevice("console", cons)
	must(op.Mknod("/dev-console", 3, "console"))
	c.Settle()
	for _, s := range c.Sites() {
		sess := c.Site(s).Login("svc")
		dev, err := sess.OpenDevice("/dev-console")
		must(err)
		_, err = dev.Write([]byte(fmt.Sprintf("message from site %d\n", s)))
		must(err)
	}
	out, err := cons.DevRead(0)
	must(err)
	fmt.Print(string(out))

	// --- Sequential readahead: half the message count for a scan.
	fmt.Println("== sequential readahead ==")
	big := make([]byte, 16*storage.PageSize)
	must(op.WriteFile("/big.dat", big))
	must(op.SetReplication("/big.dat", 1))
	c.Settle()
	reader := c.Site(2).Login("reader")
	scan := func(ra bool) int64 {
		c.Site(2).FS.SetFeatures(fs.Features{Readahead: ra})
		f, err := reader.Open("/big.dat", locus.Read)
		must(err)
		defer f.Close() //locus:vet-allow uncheckedcall example: read-only handle, nothing to lose
		before := c.Stats().Msgs
		buf := make([]byte, storage.PageSize)
		for pn := 0; pn < 16; pn++ {
			_, err := f.ReadAt(buf, int64(pn)*storage.PageSize)
			must(err)
		}
		return c.Stats().Msgs - before
	}
	fmt.Printf("16-page remote scan: %d msgs without readahead, %d with\n", scan(false), scan(true))

	// --- Demand recovery: reconcile one hot directory immediately.
	fmt.Println("== demand recovery ==")
	must(op.Mkdir("/hot"))
	c.Settle()
	c.Partition([]locus.SiteID{1}, []locus.SiteID{2, 3})
	must(op.WriteFile("/hot/a", []byte("a")))
	must(c.Site(2).Login("x").WriteFile("/hot/b", []byte("b")))
	// Heal the wire without the full reconciliation sweep, then pull
	// just /hot forward on demand.
	c.Network().HealAll()
	c.Site(1).Topo.RunMergeProtocol() // error unchecked by design: example: merge outcome is shown by the reads below
	c.Settle()
	rep, err := c.Site(1).Recon.DemandReconcilePath(op.Cred(), "/hot")
	must(err)
	c.Settle()
	ents, err := op.ReadDir("/hot")
	must(err)
	fmt.Printf("after demand recovery (%d dir merged): /hot has %d entries\n", rep.DirsMerged, len(ents))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
