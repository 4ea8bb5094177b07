package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"github.com/sociograph/reconcile/internal/core"
)

// The codec reads exactly one format version. No version-1 data was ever
// deployed, so a version-1 stream is refused with a clear error rather than
// decoded; these tests pin that refusal on real payloads relabelled as
// version 1, so the payload itself would otherwise decode.

// relabel rewrites the version field of a single-byte-varint stream and
// recomputes the CRC trailer, leaving the payload untouched.
func relabel(t *testing.T, stream []byte, version byte) []byte {
	t.Helper()
	out := bytes.Clone(stream)
	if out[4] != Version {
		t.Fatalf("stream version byte %d, want %d", out[4], Version)
	}
	out[4] = version
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(body))
	return out
}

func wantUnsupported(t *testing.T, err error, version int) {
	t.Helper()
	want := fmt.Sprintf("unsupported format version %d", version)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestReadStateV1 pins that state streams of any version but the current
// one — version 1 in particular — are refused, for frontier and cache-free
// states alike, while the same payload at the current version decodes.
func TestReadStateV1(t *testing.T) {
	for _, ec := range []engineCase{frontierCase, parallelCase} {
		t.Run(ec.name, func(t *testing.T) {
			_, _, s := testSession(t, 99, 200, ec.options(), 3)
			var buf bytes.Buffer
			if err := WriteState(&buf, s.ExportState()); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadState(bytes.NewReader(relabel(t, buf.Bytes(), Version))); err != nil {
				t.Fatalf("current-version stream rejected: %v", err)
			}
			for _, v := range []byte{1, Version + 1} {
				_, err := ReadState(bytes.NewReader(relabel(t, buf.Bytes(), v)))
				wantUnsupported(t, err, int(v))
			}
		})
	}
}

// TestReadDeltaV1 pins the same refusal for delta records and full
// snapshots.
func TestReadDeltaV1(t *testing.T) {
	g1, g2, s := testSession(t, 101, 200, frontierCase.options(), 0)
	base := s.ExportState()
	s.RunContext(t.Context(), 1)
	d, err := core.DiffStates(base, s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var db, fb bytes.Buffer
	if err := WriteDelta(&db, d); err != nil {
		t.Fatal(err)
	}
	if err := Write(&fb, g1, g2, base); err != nil {
		t.Fatal(err)
	}
	_, err = ReadDelta(bytes.NewReader(relabel(t, db.Bytes(), 1)))
	wantUnsupported(t, err, 1)
	_, _, _, err = Read(bytes.NewReader(relabel(t, fb.Bytes(), 1)))
	wantUnsupported(t, err, 1)
}
