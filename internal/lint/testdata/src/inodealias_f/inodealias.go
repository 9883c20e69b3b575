// Package inodealias_f is a locus-vet fixture for the inodealias
// analyzer: an *Inode handed out by Container.GetInode, or read off the
// reply of a typed exchange, is shared with its other holders and must
// be Cloned before it is written through; passing it on is fine. The
// test config names the generic function Call as the exchange and
// Container.GetInode, Kernel.lookInternal, Kernel.lookLocal,
// Kernel.resolve and Kernel.expandHidden as the source calls.
package inodealias_f

type VV map[int]int

type Inode struct {
	Num  int
	Size int64
	VV   VV
}

func (i *Inode) Clone() *Inode {
	out := *i
	return &out
}

type Method[Req, Resp any] struct{ Name string }

type Node struct{}

func (n *Node) call(method string, payload any) (any, error) { return nil, nil }

func Call[Req, Resp any](n *Node, m Method[Req, Resp], req *Req) (*Resp, error) {
	v, err := n.call(m.Name, req)
	resp, _ := v.(*Resp)
	return resp, err
}

type openReq struct{}

type openResp struct {
	Ino *Inode
}

var mOpen = Method[openReq, openResp]{Name: "open"}

type Container struct{ inodes map[int]*Inode }

func (c *Container) GetInode(n int) (*Inode, error) { return c.inodes[n], nil }

func (c *Container) CommitInode(*Inode) error { return nil }

// Kernel.lookInternal hands out the committed inode with the site that
// stores it: the first of three results is the shared one.
type Kernel struct{ c *Container }

func (k *Kernel) lookInternal(n int) (*Inode, int, error) {
	ino, err := k.c.GetInode(n)
	return ino, 1, err
}

// Kernel.lookLocal is the look that sends nothing, the committed inode
// alone (nil when only the CSS can answer).
func (k *Kernel) lookLocal(n int) *Inode {
	ino, _ := k.c.GetInode(n)
	return ino
}

// Kernel.expandHidden substitutes a hidden directory's context entry and
// hands back the look at it, the entry's committed inode first.
func (k *Kernel) expandHidden(n int) (*Inode, int, error) {
	ino, err := k.c.GetInode(n)
	return ino, 2, err
}

// Kernel.resolve hands its caller, beside what a search resolved, the
// look that found it: the first result is the committed inode again.
type Resolved struct{ ID int }

func (k *Kernel) resolve(path string) (*Inode, int, *Resolved, error) {
	ino, ss, err := k.lookInternal(1)
	return ino, ss, &Resolved{ID: 1}, err
}

var cache = map[int]*Inode{}

func use(*Inode) {}

// okReads: reading a shared inode in place is legitimate, and so is
// handing it to a callee.
func okReads(n *Node) int64 {
	r, err := Call(n, mOpen, &openReq{})
	if err != nil {
		return 0
	}
	ino := r.Ino
	use(ino)
	return ino.Size
}

// okForwards: a shared inode may go wherever a reader may hold it — the
// next reply, a long-lived structure, the caller.
func okForwards(n *Node, c *Container) (*openResp, *Inode) {
	r, _ := Call(n, mOpen, &openReq{})
	ino, _ := c.GetInode(1)
	cache[ino.Num] = ino
	return &openResp{Ino: r.Ino}, ino
}

// okClones: a Clone result is an owned copy; writing it is fine.
func okClones(n *Node) *Inode {
	r, _ := Call(n, mOpen, &openReq{})
	ino := r.Ino.Clone()
	ino.Size = 7
	return ino
}

// okCloneThenWrite: the read-modify-commit shape. Reassigning the
// identifier from Clone kills the taint before the write.
func okCloneThenWrite(c *Container) error {
	ino, err := c.GetInode(1)
	if err != nil {
		return err
	}
	ino = ino.Clone()
	ino.Size = 9
	return c.CommitInode(ino)
}

// okLocalHandler: a reply built by this site's own handler is not a
// decode; only the exchange's result is rooted.
func okLocalHandler(h func(*openReq) (*openResp, error)) {
	r, _ := h(&openReq{})
	r.Ino.Size = 7
}

func badWriteThroughGetInode(c *Container) error {
	ino, err := c.GetInode(1)
	if err != nil {
		return err
	}
	ino.Size = 9 // want "writes through a shared Inode without Clone"
	return c.CommitInode(ino)
}

// badWriteThroughLookInternal: what a look found is the committed inode
// itself.
func badWriteThroughLookInternal(k *Kernel) {
	ino, _, err := k.lookInternal(1)
	if err != nil {
		return
	}
	ino.Size = 9 // want "writes through a shared Inode without Clone"
}

// badWriteThroughLocalLook: the free look is the committed inode too.
func badWriteThroughLocalLook(k *Kernel) {
	if ino := k.lookLocal(1); ino != nil {
		ino.Size = 9 // want "writes through a shared Inode without Clone"
	}
}

// badWriteThroughExpandLook: so is the look at the entry a hidden
// directory's expansion substituted.
func badWriteThroughExpandLook(k *Kernel) {
	ino, _, err := k.expandHidden(1)
	if err != nil {
		return
	}
	ino.Size = 9 // want "writes through a shared Inode without Clone"
}

// okCloneAfterLook: Stat's shape, the caller's own copy of the look the
// search carried.
func okCloneAfterLook(k *Kernel) (*Inode, error) {
	ino, _, _, err := k.resolve("/d/f")
	if err != nil {
		return nil, err
	}
	out := ino.Clone()
	out.Size = 9
	return out, nil
}

// badWriteThroughCarriedLook: the look a search carries to its caller is
// as shared as a look the caller makes.
func badWriteThroughCarriedLook(k *Kernel) {
	ino, _, _, err := k.resolve("/d/f")
	if err != nil {
		return
	}
	ino.Size = 9 // want "writes through a shared Inode without Clone"
}

// badWriteThroughAlias: an alias of an alias is as shared.
func badWriteThroughAlias(c *Container) {
	ino, _ := c.GetInode(1)
	same := ino
	same.VV[1] = 2 // want "writes through a shared Inode without Clone"
}

func badMutates(n *Node) {
	r, _ := Call(n, mOpen, &openReq{})
	ino := r.Ino
	ino.Size = 7 // want "writes through a shared Inode without Clone"
}

func badMutatesInline(n *Node) {
	r, _ := Call(n, mOpen, &openReq{})
	r.Ino.Size = 7 // want "writes through a shared Inode without Clone"
}

// badExplicitTypeArgs: explicit type arguments resolve to the same
// declared exchange.
func badExplicitTypeArgs(n *Node) {
	r, _ := Call[openReq, openResp](n, mOpen, &openReq{})
	r.Ino.Size = 7 // want "writes through a shared Inode without Clone"
}

// badAssignedReply: the reply bound by plain assignment to a
// predeclared variable roots the decode just the same.
func badAssignedReply(n *Node) {
	var r *openResp
	r, _ = Call(n, mOpen, &openReq{})
	r.Ino.Size = 7 // want "writes through a shared Inode without Clone"
}

// allowedWrite exercises the suppression path.
func allowedWrite(c *Container) {
	ino, _ := c.GetInode(1)
	ino.Size = 7 //locus:vet-allow inodealias fixture: writing through the alias is this case's point
}
