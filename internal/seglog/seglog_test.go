package seglog

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestAppendAfterFailedRemove: when a write fails on a segment holding
// no acked record, the writer removes that segment. If the removal
// fails too, the file stays behind; since the failed sequences are
// skipped, the next segment gets a new name, so later appends must
// succeed instead of failing EEXIST on the leftover.
func TestAppendAfterFailedRemove(t *testing.T) {
	dir := t.TempDir()
	armed := false
	opts := Options{
		Dir: dir, Name: "test", Kind: KindPoints, SegmentBytes: 1 << 20,
		WrapWriter: func(w io.Writer) io.Writer {
			path := w.(*os.File).Name()
			return writerFunc(func(p []byte) (int, error) {
				if !armed {
					return w.Write(p)
				}
				armed = false
				// Make the coming os.Remove fail: a non-empty directory
				// cannot be removed, whatever the caller's privileges.
				os.Remove(path)
				os.MkdirAll(filepath.Join(path, "busy"), 0o755)
				return 0, syscall.EIO
			})
		},
	}
	w, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	appendOne := func(body string) (uint64, error) {
		rec := EncodeRecord(nil, KindPoints, w.LastSeq()+1, []byte(body))
		return w.Append(rec, 1)
	}

	armed = true // the very first write fails, on a recordless segment
	if _, err := appendOne("lost"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("faulted append: err = %v, want EIO", err)
	}
	if _, err := os.Stat(filepath.Join(dir, SegName("test", 1))); err != nil {
		t.Fatalf("leftover of the failed removal is gone: %v", err)
	}
	for i, body := range []string{"a", "b"} {
		seq, err := appendOne(body)
		if err != nil {
			t.Fatalf("append %d after the failed removal: %v", i, err)
		}
		if want := uint64(i + 2); seq != want {
			t.Fatalf("append %d: seq %d, want %d (the failed sequence is skipped)", i, seq, want)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	sc, err := OpenScanner(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var got []string
	for {
		_, body, err := sc.Next()
		if err == io.EOF {
			break
		}
		got = append(got, string(body))
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("recovered %q, want [a b]", got)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
