package proc_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// printer is a toy character device driver: writes accumulate, reads
// drain a preloaded tape.
type printer struct {
	mu   sync.Mutex
	out  bytes.Buffer
	tape []byte
}

func (p *printer) DevRead(max int) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if max <= 0 || max > len(p.tape) {
		max = len(p.tape)
	}
	out := p.tape[:max]
	p.tape = p.tape[max:]
	return append([]byte(nil), out...), nil
}

func (p *printer) DevWrite(data []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.Write(data)
}

func TestRemoteDeviceTransparentAccess(t *testing.T) {
	h := newHarness(t, 3)
	// The line printer hangs off site 3.
	lp := &printer{tape: []byte("status: ready")}
	h.m(3).RegisterDevice("lp0", lp)
	if err := h.c.K(1).Mknod(cred(), "/dev-lp", 3, "lp0", 0666); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()

	// A process at site 2 opens and uses it with no knowledge of where
	// it is (§2.4.2).
	p2 := h.m(2).InitProcess(cred())
	dev, err := h.m(2).OpenDevice(p2, "/dev-lp")
	if err != nil {
		t.Fatal(err)
	}
	if dev.Host() != 3 {
		t.Fatalf("host = %d", dev.Host())
	}
	if n, err := dev.Write([]byte("hello printer\n")); err != nil || n != 14 {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	status, err := dev.Read(64)
	if err != nil || string(status) != "status: ready" {
		t.Fatalf("read: %q %v", status, err)
	}
	lp.mu.Lock()
	got := lp.out.String()
	lp.mu.Unlock()
	if got != "hello printer\n" {
		t.Fatalf("printer received %q", got)
	}

	// Local access uses the same path with zero messages.
	p3 := h.m(3).InitProcess(cred())
	devLocal, err := h.m(3).OpenDevice(p3, "/dev-lp")
	if err != nil {
		t.Fatal(err)
	}
	before := h.c.Net.Stats()
	if _, err := devLocal.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := h.c.Net.Stats().Sub(before); d.Msgs != 0 {
		t.Fatalf("local device write cost %d messages", d.Msgs)
	}
}

func TestDeviceErrors(t *testing.T) {
	h := newHarness(t, 2)
	p1 := h.m(1).InitProcess(cred())
	// Not a device.
	installModule(t, h.c.K(1), "/file", "x")
	if _, err := h.m(1).OpenDevice(p1, "/file"); err == nil {
		t.Fatal("OpenDevice of a regular file should fail")
	}
	// Device with no driver registered at the host.
	if err := h.c.K(1).Mknod(cred(), "/dev-ghost", 2, "ghost", 0666); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()
	dev, err := h.m(1).OpenDevice(p1, "/dev-ghost")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Read(1); err == nil || !strings.Contains(err.Error(), "no device") {
		t.Fatalf("read from ghost device: %v", err)
	}
	// Device at a crashed site.
	h.m(2).RegisterDevice("real", &printer{})
	if err := h.c.K(1).Mknod(cred(), "/dev-real", 2, "real", 0666); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()
	dev2, err := h.m(1).OpenDevice(p1, "/dev-real")
	if err != nil {
		t.Fatal(err)
	}
	h.c.Crash(2)
	if _, err := dev2.Write([]byte("x")); err == nil {
		t.Fatal("write to device at crashed site should fail")
	}
}
