package ooc

import (
	"bytes"
	"io"
	"slices"
	"testing"
)

// FuzzShardDecode feeds arbitrary shard payloads to the run decoder, for
// both encodings and small k and n, through both windows: the whole
// shard in memory, and a one-record buffer refilled from a reader.  The
// property: either an error, or exactly meta.Records records that are
// strictly increasing, inside the universe and in strictly sorted order
// — the same either way — and never a panic or a read past the data.
func FuzzShardDecode(f *testing.F) {
	// The lcp that used to wrap negative and panic the prefix copy.
	f.Add(append([]byte{0, 1, 1, 1}, append(bytes.Repeat([]byte{0x80}, 9), 1, 1, 1, 1)...), true, uint8(3), uint16(100), uint16(2))
	// A valid shard of each encoding, cut at every byte, and with
	// trailing garbage.
	recs := goldenCorpus()
	for _, compress := range []bool{false, true} {
		payload := encodeRuns(3, compress, runsOf(recs))
		for cut := 0; cut <= len(payload); cut++ {
			f.Add(payload[:cut], compress, uint8(3), uint16(401), uint16(len(recs)))
		}
		f.Add(append(slices.Clone(payload), 2, 1), compress, uint8(3), uint16(401), uint16(len(recs)))
		f.Add(append(slices.Clone(payload), payload[:12]...), compress, uint8(3), uint16(401), uint16(len(recs)))
	}

	f.Fuzz(func(t *testing.T, payload []byte, compress bool, kIn uint8, nIn, records uint16) {
		k := 2 + int(kIn)%5
		n := 1 + int(nIn)%500
		meta := ShardMeta{Path: "fuzz", Records: int64(records)}
		// Exactly-sized, so a read past the data is an index panic.
		data := slices.Clip(append(shardHeader(k, compress), payload...))
		meta.Bytes = int64(len(data))

		decode := func(r *ShardReader, err error) ([][]uint32, error) {
			if err != nil {
				return nil, err
			}
			var out [][]uint32
			rec := make([]uint32, k)
			for err = r.Next(rec); err == nil; err = r.Next(rec) {
				out = append(out, slices.Clone(rec))
			}
			if err == io.EOF {
				err = nil
			}
			return out, err
		}
		whole, wholeErr := decode(OpenShardBytes(data, meta, k, n, compress))
		win := make([]byte, 0, max(shardHeaderLen, maxVarint32*(k+1)))
		windowed, windowedErr := decode(newShardReader(win, bytes.NewReader(data), meta, k, n, compress))

		if (wholeErr == nil) != (windowedErr == nil) {
			t.Fatalf("in-memory decode: %v; windowed decode: %v", wholeErr, windowedErr)
		}
		if wholeErr != nil {
			return
		}
		if !slices.EqualFunc(whole, windowed, slices.Equal[[]uint32]) {
			t.Fatalf("in-memory and windowed decodes differ: %v vs %v", whole, windowed)
		}
		if len(whole) != int(records) {
			t.Fatalf("decoded %d records without error, meta says %d", len(whole), records)
		}
		for i, rec := range whole {
			for j, v := range rec {
				if int(v) >= n || (j > 0 && v <= rec[j-1]) {
					t.Fatalf("record %d = %v: not strictly increasing inside [0,%d)", i, rec, n)
				}
			}
			if i > 0 && slices.Compare(whole[i-1], rec) >= 0 {
				t.Fatalf("records %d, %d out of sorted order: %v, %v", i-1, i, whole[i-1], rec)
			}
		}
	})
}
