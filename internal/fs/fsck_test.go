package fs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/format"
	"repro/internal/storage"
)

// TestReadWholeLocalReadsTheVersionItWasHanded: a local read is handed
// one committed inode but reads each page from whatever is committed when
// it gets there. Handed an inode a later commit replaced, it must fail,
// not return the later version's bytes as that inode's content.
func TestReadWholeLocalReadsTheVersionItWasHanded(t *testing.T) {
	c := storage.MustContainer(1, 1, 1, 100, nil, storage.Costs{})
	commit := func(fill byte) *storage.Inode {
		t.Helper()
		ino := &storage.Inode{Num: 1, Type: storage.TypeRegular, Size: 2 * storage.PageSize}
		for i := 0; i < 2; i++ {
			p, err := c.WritePage(bytes.Repeat([]byte{fill}, storage.PageSize))
			if err != nil {
				t.Fatal(err)
			}
			ino.Pages = append(ino.Pages, p)
		}
		if err := c.CommitInode(ino); err != nil {
			t.Fatal(err)
		}
		got, err := c.GetInode(1)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	old := commit('o')
	if data, err := readWholeLocal(c, old); err != nil || !bytes.Equal(data, bytes.Repeat([]byte{'o'}, 2*storage.PageSize)) {
		t.Fatalf("read of the committed inode: %d bytes, err %v", len(data), err)
	}
	cur := commit('n')
	if data, err := readWholeLocal(c, old); !errors.Is(err, format.ErrCorrupt) {
		t.Fatalf("read of a replaced inode: %d bytes starting %q, err %v; want format.ErrCorrupt", len(data), data[:min(len(data), 1)], err)
	}
	if data, err := readWholeLocal(c, cur); err != nil || !bytes.Equal(data, bytes.Repeat([]byte{'n'}, 2*storage.PageSize)) {
		t.Fatalf("read of the new inode: %d bytes, err %v", len(data), err)
	}
}
