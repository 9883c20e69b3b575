// Package pageleak_f is a locus-vet fixture for the pageleak analyzer:
// the test config tracks Container.WritePage, Container.AdoptPage and
// Container.AllocInode as storage allocations. Every path out of the
// allocating function must free, commit, or hand off the result.
package pageleak_f

type PhysPage int

type Inode struct {
	Num   int
	Pages []PhysPage
}

func (i *Inode) Clone() *Inode {
	out := *i
	out.Pages = append([]PhysPage(nil), i.Pages...)
	return &out
}

type Container struct {
	pages  map[PhysPage][]byte
	next   PhysPage
	incore *Inode
}

func (c *Container) WritePage(data []byte) (PhysPage, error) {
	c.next++
	c.pages[c.next] = data
	return c.next, nil
}

// AdoptPage is WritePage without the copy: the container takes the
// caller's buffer as the new page.
func (c *Container) AdoptPage(buf []byte) (PhysPage, error) {
	c.next++
	c.pages[c.next] = buf
	return c.next, nil
}

func (c *Container) AllocInode() (int, error) { return int(c.next), nil }

func (c *Container) FreePages(pages ...PhysPage) {
	for _, pp := range pages {
		delete(c.pages, pp)
	}
}

func (c *Container) CommitInode(ino *Inode) error {
	c.incore = ino
	return nil
}

// okCommitReleases parks the page in a fresh inode and commits it: the
// commit call takes over responsibility for the whole alias set.
func okCommitReleases(c *Container, data []byte) error {
	pp, err := c.WritePage(data)
	if err != nil {
		return err
	}
	ino := &Inode{}
	ino.Pages = append(ino.Pages, pp)
	return c.CommitInode(ino)
}

// okReturnsPage transfers ownership to the caller.
func okReturnsPage(c *Container, data []byte) (PhysPage, error) {
	pp, err := c.WritePage(data)
	if err != nil {
		return 0, err
	}
	return pp, nil
}

// okDeferFrees releases through a deferred call on every path.
func okDeferFrees(c *Container, data []byte) error {
	pp, err := c.WritePage(data)
	if err != nil {
		return err
	}
	defer c.FreePages(pp)
	if len(data) > 1 {
		return nil
	}
	return nil
}

// okLoopFreesOnError is the honest version of the classic loop shape:
// a mid-loop failure frees the pages already parked in the fresh inode.
func okLoopFreesOnError(c *Container, chunks [][]byte) error {
	ino := &Inode{}
	for _, chunk := range chunks {
		pp, err := c.WritePage(chunk)
		if err != nil {
			c.FreePages(ino.Pages...)
			return err
		}
		ino.Pages = append(ino.Pages, pp)
	}
	return c.CommitInode(ino)
}

// badDropsOnEarlyReturn leaks: the len(data) == 0 path returns without
// freeing the page.
func badDropsOnEarlyReturn(c *Container, data []byte) error {
	pp, err := c.WritePage(data) // want "result of Container.WritePage may leak"
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	c.FreePages(pp)
	return nil
}

// badLoopAbandons leaks: pages parked in the fresh inode are abandoned
// when a later iteration fails.
func badLoopAbandons(c *Container, chunks [][]byte) error {
	ino := &Inode{}
	for _, chunk := range chunks {
		pp, err := c.WritePage(chunk) // want "result of Container.WritePage may leak"
		if err != nil {
			return err
		}
		ino.Pages = append(ino.Pages, pp)
	}
	return c.CommitInode(ino)
}

// okAdoptHandsOff hands the adopted page to a callee, which takes over
// responsibility for it: the analysis does not look inside. Here the
// callee is a function value; in fs.pullFile it is Container.FreePages,
// which a failed transfer hands every page the pull adopted.
func okAdoptHandsOff(c *Container, arrived []byte, release func(...PhysPage)) error {
	pp, err := c.AdoptPage(arrived)
	if err != nil {
		return err
	}
	release(pp)
	return nil
}

// badAdoptedPageDropped leaks: a pulled page the container adopted is
// as much an allocation as one it wrote, and the short-file path
// forgets it.
func badAdoptedPageDropped(c *Container, arrived []byte, npages int) error {
	pp, err := c.AdoptPage(arrived) // want "result of Container.AdoptPage may leak"
	if err != nil {
		return err
	}
	if npages == 0 {
		return nil
	}
	ino := &Inode{Pages: []PhysPage{pp}}
	return c.CommitInode(ino)
}

// badInodeNumDropped leaks the reserved inode number on the refusal
// path.
func badInodeNumDropped(c *Container, takeIt bool) error {
	num, err := c.AllocInode() // want "result of Container.AllocInode may leak"
	if err != nil {
		return err
	}
	if !takeIt {
		return nil
	}
	ino := &Inode{Num: num}
	return c.CommitInode(ino)
}

// badBlankDiscard leaks: assigning the page to the blank identifier
// keeps it nowhere and hands it to no one.
func badBlankDiscard(c *Container, data []byte, keep bool) error {
	pp, err := c.WritePage(data) // want "result of Container.WritePage may leak"
	if err != nil {
		return err
	}
	if !keep {
		_ = pp
		return nil
	}
	ino := &Inode{Pages: []PhysPage{pp}}
	return c.CommitInode(ino)
}

// allowedLeak exercises the suppression path: the leak is the point of
// this case, so the directive must silence the finding.
func allowedLeak(c *Container, data []byte) error {
	pp, err := c.WritePage(data) //locus:vet-allow pageleak fixture: the leak is deliberate to test the allow path
	if err != nil {
		return err
	}
	if len(data) > 4 {
		return nil
	}
	c.FreePages(pp)
	return nil
}
