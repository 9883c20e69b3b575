// Package inodealias_f is a locus-vet fixture for the inodealias
// analyzer: an *Inode read off the reply of a typed exchange aliases
// the sender's copy and must be Cloned before it is mutated or escapes.
// The test config names the generic function Call as the exchange.
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

var cache = map[int]*Inode{}

func use(*Inode) {}

// okReads: reading decoded metadata in place is legitimate; plain call
// arguments are not escapes either.
func okReads(n *Node) int64 {
	r, err := Call(n, mOpen, &openReq{})
	if err != nil {
		return 0
	}
	ino := r.Ino
	use(ino)
	return ino.Size
}

// okClones: a Clone result is an owned copy; mutation and return are
// fine.
func okClones(n *Node) *Inode {
	r, _ := Call(n, mOpen, &openReq{})
	ino := r.Ino.Clone()
	ino.Size = 7
	return ino
}

// okCloneBeforeEscape: reassigning the identifier from Clone kills the
// taint before the mutation and the forward.
func okCloneBeforeEscape(n *Node) *openResp {
	r, _ := Call(n, mOpen, &openReq{})
	ino := r.Ino
	ino = ino.Clone()
	ino.Size = 9
	return &openResp{Ino: ino}
}

// okLocalHandler: a reply built by this site's own handler is not a
// decode; only the exchange's result aliases a peer.
func okLocalHandler(h func(*openReq) (*openResp, error)) *Inode {
	r, _ := h(&openReq{})
	return r.Ino
}

func badMutates(n *Node) {
	r, _ := Call(n, mOpen, &openReq{})
	ino := r.Ino
	ino.Size = 7 // want "mutates an RPC-decoded Inode without Clone"
}

func badMutatesInline(n *Node) {
	r, _ := Call(n, mOpen, &openReq{})
	r.Ino.Size = 7 // want "mutates an RPC-decoded Inode without Clone"
}

// badExplicitReturn: explicit type arguments resolve to the same
// declared exchange.
func badExplicitReturn(n *Node) *Inode {
	r, _ := Call[openReq, openResp](n, mOpen, &openReq{})
	return r.Ino // want "returns an RPC-decoded Inode without Clone"
}

// badAssignedReturn: the reply bound by plain assignment to a
// predeclared variable roots the decode just the same.
func badAssignedReturn(n *Node) *Inode {
	var r *openResp
	r, _ = Call(n, mOpen, &openReq{})
	return r.Ino // want "returns an RPC-decoded Inode without Clone"
}

func badStores(n *Node) {
	r, _ := Call(n, mOpen, &openReq{})
	ino := r.Ino
	cache[ino.Num] = ino // want "stores an RPC-decoded Inode into shared state without Clone"
}

func badForwards(n *Node) *openResp {
	r, _ := Call(n, mOpen, &openReq{})
	return &openResp{Ino: r.Ino} // want "forwards an RPC-decoded Inode into a composite literal without Clone"
}

func badSends(n *Node, ch chan *Inode) {
	r, _ := Call(n, mOpen, &openReq{})
	ino := r.Ino
	ch <- ino // want "sends an RPC-decoded Inode without Clone"
}

func badShares(n *Node) {
	r, _ := Call(n, mOpen, &openReq{})
	ino := r.Ino
	go func() { cache[0] = ino }() // want "shares an RPC-decoded Inode with a goroutine without Clone"
}

// allowedReturn exercises the suppression path.
func allowedReturn(n *Node) *Inode {
	r, _ := Call(n, mOpen, &openReq{})
	ino := r.Ino
	return ino //locus:vet-allow inodealias fixture: forwarding the alias is this case's point
}
