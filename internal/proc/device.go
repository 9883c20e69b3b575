package proc

import (
	"fmt"
	"strconv"

	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// Transparent remote devices (§2.4.2): "LOCUS provides for transparent
// use of remote devices in most cases. This functionality is
// exceedingly valuable." A device special file in the catalog names a
// hosting site and a driver; opening it from any site yields a handle
// whose reads and writes are serviced by the driver at the hosting
// site. (The paper's one exception — raw non-character devices — is
// an exception here too: only character-stream drivers exist.)

// DeviceDriver is a site-local character device implementation.
type DeviceDriver interface {
	// DevRead returns up to max bytes from the device.
	DevRead(max int) ([]byte, error)
	// DevWrite consumes data, returning the count accepted.
	DevWrite(data []byte) (int, error)
}

// Device I/O at the hosting site. A read consumes device input and a
// write emits output, so both are at-most-once.
var (
	mDevRead  = netsim.Method[devReadReq, devReadResp]{Name: "proc.devread", AtMostOnce: true}
	mDevWrite = netsim.Method[devWriteReq, devWriteResp]{Name: "proc.devwrite", AtMostOnce: true}
)

type devReadReq struct {
	Name string
	Max  int
}

type devReadResp struct {
	Data []byte
}

// WireSize charges the moved bytes.
func (r *devReadResp) WireSize() int { return len(r.Data) + 16 }

type devWriteReq struct {
	Name string
	Data []byte
}

// WireSize charges the moved bytes.
func (r *devWriteReq) WireSize() int { return len(r.Data) + 16 }

type devWriteResp struct {
	N int
}

// RegisterDevice installs a driver at this site under a name referenced
// by Mknod device files.
func (m *Manager) RegisterDevice(name string, d DeviceDriver) {
	m.devMu.Lock()
	if m.devices == nil {
		m.devices = make(map[string]DeviceDriver)
	}
	m.devices[name] = d
	m.devMu.Unlock()
}

func (m *Manager) driver(name string) (DeviceDriver, bool) {
	m.devMu.Lock()
	defer m.devMu.Unlock()
	d, ok := m.devices[name]
	return d, ok
}

// DeviceHandle is a process's handle on a (possibly remote) device.
type DeviceHandle struct {
	m    *Manager
	host SiteID
	name string
}

// Host returns the device's hosting site.
func (d *DeviceHandle) Host() SiteID { return d.host }

// OpenDevice looks up a device special file and returns a handle
// routing I/O to the hosting site's driver.
func (m *Manager) OpenDevice(p *Process, path string) (*DeviceHandle, error) {
	ino, err := m.kernel.Stat(p.cred, path)
	if err != nil {
		// The name's CSS or storage site being gone is a §5.6 site
		// failure, not a bad pathname.
		return nil, siteFailed(err)
	}
	if ino.Type != storage.TypeDevice {
		return nil, fmt.Errorf("proc: %s is not a device", path)
	}
	hostStr := ino.Annotations[fs.DevSiteAnnotation]
	name := ino.Annotations[fs.DevNameAnnotation]
	host, err := strconv.Atoi(hostStr)
	if err != nil || name == "" {
		return nil, fmt.Errorf("proc: %s has no device binding", path)
	}
	return &DeviceHandle{m: m, host: SiteID(host), name: name}, nil
}

// Read reads from the device; the request travels to the hosting site
// if the device is remote, with identical semantics either way.
func (d *DeviceHandle) Read(max int) ([]byte, error) {
	req := &devReadReq{Name: d.name, Max: max}
	resp, err := netsim.CallAt(d.m.node, d.host, mDevRead, d.m.handleDevRead, req)
	if err != nil {
		return nil, siteFailed(err)
	}
	return resp.Data, nil
}

// Write writes to the device.
func (d *DeviceHandle) Write(data []byte) (int, error) {
	req := &devWriteReq{Name: d.name, Data: append([]byte(nil), data...)}
	resp, err := netsim.CallAt(d.m.node, d.host, mDevWrite, d.m.handleDevWrite, req)
	if err != nil {
		return 0, siteFailed(err)
	}
	return resp.N, nil
}

func (m *Manager) handleDevRead(_ SiteID, req *devReadReq) (*devReadResp, error) {
	d, ok := m.driver(req.Name)
	if !ok {
		return nil, fmt.Errorf("proc: no device %q at site %d", req.Name, m.site)
	}
	data, err := d.DevRead(req.Max)
	if err != nil {
		return nil, err
	}
	return &devReadResp{Data: data}, nil
}

func (m *Manager) handleDevWrite(_ SiteID, req *devWriteReq) (*devWriteResp, error) {
	d, ok := m.driver(req.Name)
	if !ok {
		return nil, fmt.Errorf("proc: no device %q at site %d", req.Name, m.site)
	}
	n, err := d.DevWrite(req.Data)
	if err != nil {
		return nil, err
	}
	return &devWriteResp{N: n}, nil
}
