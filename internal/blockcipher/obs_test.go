package blockcipher

import "testing"

// plainSealer hides every capability of its inner sealer except the
// base Seal/Open contract, forcing the package helpers down their
// fallback paths.
type plainSealer struct{ inner Sealer }

func (p plainSealer) Seal(pt []byte) ([]byte, error)     { return p.inner.Seal(pt) }
func (p plainSealer) Open(sealed []byte) ([]byte, error) { return p.inner.Open(sealed) }
func (p plainSealer) Overhead() int                      { return p.inner.Overhead() }

// TestThroughputCountsEveryHelper holds bytes and time to the same set
// of calls: each of the four package helpers adds exactly its records'
// bytes to Throughput — plaintext bytes on seal, sealed bytes on open —
// whether the sealer has the in-place and batch capabilities or falls
// back to Seal/Open, and the batch fallback (a loop of the in-place
// helpers) counts each record once, not twice.
func TestThroughputCountsEveryHelper(t *testing.T) {
	const n, size = 3, 40
	for _, tc := range []struct {
		name   string
		sealer Sealer
	}{
		{"aes", newTestSealer(t)},
		{"aes-fallback", plainSealer{newTestSealer(t)}},
		{"null", NullSealer{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.sealer
			slot := size + s.Overhead()
			pts, sealed := make([][]byte, n), make([][]byte, n)
			for i := range pts {
				pts[i], sealed[i] = make([]byte, size), make([]byte, slot)
			}
			delta := func(what string, wantSealed, wantOpened int64, f func() error) {
				t.Helper()
				s0, o0 := Throughput()
				if err := f(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				s1, o1 := Throughput()
				if s1-s0 != wantSealed || o1-o0 != wantOpened {
					t.Errorf("%s moved Throughput by (%d sealed, %d opened), want (%d, %d)",
						what, s1-s0, o1-o0, wantSealed, wantOpened)
				}
			}
			delta("SealInto", size, 0, func() error { return SealInto(s, sealed[0], pts[0]) })
			delta("OpenInto", 0, int64(slot), func() error { return OpenInto(s, pts[0], sealed[0]) })
			delta("SealBatch", n*size, 0, func() error { return SealBatch(s, pts, sealed, 2) })
			delta("OpenBatch", 0, int64(n*slot), func() error { return OpenBatch(s, sealed, pts, 2) })
		})
	}
}
