package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestTraceGolden pins the event count and SHA-256 of GenerateTrace's output
// at the bench/ workloads' generator parameters and at testParams. Every
// lf1-growth and query-mix figure, and every counter golden, rests on these
// bytes, so a change to the generator or to what it calls (the homology
// oracle above all) must leave them identical or be a deliberate re-pin.
//
// At testParams it also pins the trace codec's canonical form: every line
// decodes through UnmarshalJSON's canonical path, not the encoding/json
// fallback, and encodes back to the same bytes.
func TestTraceGolden(t *testing.T) {
	withSeed := func(p Params, seed int64) Params {
		p.Seed = seed
		return p
	}
	bench := func(base, tclones int) Params {
		p := DefaultParams()
		p.BaseClones, p.TclonesPerClone, p.Intervals = base, tclones, 4
		return p
	}
	cases := []struct {
		name      string
		p         Params
		events    uint64
		sha       string
		roundTrip bool
	}{
		{"lf1-growth", bench(60, 60), 49702, "5d8cac28885b61625ac1c957b9e852e61e7edbc0b4f653a1fdcb7696b49bd8d6", false},
		{"query-mix", bench(60, 20), 17351, "3ad709cfd13920f54e30b2ddb8fdd89ce570ea8d956254b31b7e1d33ab8e71c5", false},
		{"test-seed1", withSeed(testParams(), 1), 561, "f1e2583c8f7ff6d84c69d4545359eb7951cfb5b200256ba7fd0f574c24f05b16", true},
		{"test-seed77", withSeed(testParams(), 77), 536, "66a22c113c2dc8596bf6364defae9dbed444c5a3b50bd4836d15a173ca2d14a7", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			n, err := GenerateTrace(&buf, c.p, c.p.Intervals)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); n != c.events || got != c.sha {
				t.Errorf("trace = %d events, sha256 %s; want %d events, sha256 %s", n, got, c.events, c.sha)
			}
			if !c.roundTrip {
				return
			}
			lines := bytes.SplitAfter(buf.Bytes(), []byte{'\n'})
			lines = lines[:len(lines)-1] // after the last newline
			if uint64(len(lines)) != n {
				t.Fatalf("%d lines for %d events", len(lines), n)
			}
			for i, line := range lines {
				var ev TraceEvent
				if !ev.decodeCanonical(line[:len(line)-1]) {
					t.Fatalf("line %d is not in the canonical form: %s", i+1, line)
				}
				if again, err := ev.appendLine(nil); err != nil || !bytes.Equal(again, line) {
					t.Fatalf("line %d re-encodes as %q (%v), want %q", i+1, again, err, line)
				}
			}
		})
	}
}
