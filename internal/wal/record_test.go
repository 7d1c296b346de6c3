package wal

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestRecordRoundTrip pins the record codec row by row: each accepted
// payload round-trips canonically and frames to its stated length (an
// 8-byte frame header plus the payload), and the retired type bytes decode
// as ErrRecordType.
func TestRecordRoundTrip(t *testing.T) {
	rows := []struct {
		name    string
		payload []byte
		want    Record // accepted rows
		frame   int    // framed length of an accepted row
		err     error  // rejected rows
	}{
		{name: "add edge", want: Record{Type: TAddEdge, U: 1, V: 2, Weight: 2.5}, frame: 25},
		{name: "remove edge", want: Record{Type: TRemoveEdge, U: 1, V: 2}, frame: 17},
		{name: "commit", want: Record{Type: TCommit, Seq: 12, Count: 4}, frame: 21},
		{name: "label delta, 16-byte header and no entries", want: Record{Type: TLabelDelta,
			Label: &LabelDelta{Kind: LabelMIS, N: 8, Nodes: []int32{}, Bits: []bool{}}}, frame: 8 + 16},
		{name: "retired node add (1)", payload: []byte{1}, err: ErrRecordType},
		{name: "retired node removal (2)", payload: []byte{2, 7, 0, 0, 0}, err: ErrRecordType},
		{name: "retired weight change (5)", payload: append([]byte{5}, make([]byte, 24)...), err: ErrRecordType},
	}
	for _, row := range rows {
		if row.err != nil {
			if _, err := DecodeRecord(row.payload); !errors.Is(err, row.err) {
				t.Errorf("%s: got %v, want %v", row.name, err, row.err)
			}
			continue
		}
		p := EncodeRecord(row.want)
		got, err := DecodeRecord(p)
		if err != nil {
			t.Fatalf("%s: decode: %v", row.name, err)
		}
		if !reflect.DeepEqual(got, row.want) {
			t.Fatalf("%s: round trip: got %+v, want %+v", row.name, got, row.want)
		}
		// Canonical: re-encoding the decoded record reproduces the bytes.
		if !bytes.Equal(EncodeRecord(got), p) {
			t.Fatalf("%s: re-encode differs", row.name)
		}
		if n := len(appendFrame(nil, row.want)); n != row.frame {
			t.Errorf("%s: frame is %d byte(s), want %d", row.name, n, row.frame)
		}
	}
}

func TestRecordNaNWeightRoundTrips(t *testing.T) {
	r := Record{Type: TAddEdge, U: 1, V: 2, Weight: math.NaN()}
	got, err := DecodeRecord(EncodeRecord(r))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeRecord(got), EncodeRecord(r)) {
		t.Fatal("NaN weight did not round-trip bit-exactly")
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrRecordLen},
		{"unknown type", []byte{99}, ErrRecordType},
		{"zero type", []byte{0}, ErrRecordType},
		{"short add-edge", EncodeRecord(Record{Type: TAddEdge})[:10], ErrRecordLen},
		{"long commit", append(EncodeRecord(Record{Type: TCommit}), 0), ErrRecordLen},
	}
	for _, tc := range cases {
		if _, err := DecodeRecord(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestReadFrameTornCases(t *testing.T) {
	full := appendFrame(nil, Record{Type: TAddEdge, U: 1, V: 2, Weight: 1})

	if r, n, err := readFrame(full); err != nil || n != len(full) || r.Type != TAddEdge {
		t.Fatalf("clean frame: r=%+v n=%d err=%v", r, n, err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := readFrame(full[:cut]); !errors.Is(err, ErrTorn) {
			t.Fatalf("prefix of %d byte(s): got %v, want ErrTorn", cut, err)
		}
	}
	// Flip one payload bit: CRC must catch it.
	for i := frameHeader; i < len(full); i++ {
		bad := append([]byte(nil), full...)
		bad[i] ^= 0x10
		if _, _, err := readFrame(bad); !errors.Is(err, ErrTorn) {
			t.Fatalf("bit flip at %d: got %v, want ErrTorn", i, err)
		}
	}
	// Implausible length field.
	bad := append([]byte(nil), full...)
	bad[0], bad[1], bad[2], bad[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := readFrame(bad); !errors.Is(err, ErrTorn) {
		t.Fatalf("oversize length: got %v, want ErrTorn", err)
	}
}
