package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/kv"
)

// On-disk formats. Everything is little-endian; varints are Go's
// encoding/binary uvarints.
//
// Segment file (wal-<idx>.seg):
//
//	[8]  magic "OFWAL1\n\x00"
//	[8]  first sequence number the segment may contain
//	then frames, back to back.
//
// Frame (one committed transaction):
//
//	[4]  body length
//	[4]  IEEE CRC32 of body
//	body = uvarint seq
//	       uvarint effect count
//	       effects: tag byte (0 put, 1 del), uvarint keylen, key bytes,
//	                and for put a uvarint value
//
// A frame whose header is short, whose body is cut off, or whose CRC
// does not match is a torn tail: recovery ignores it and every byte
// after it. Frames reuse the byte-rendering discipline of the wire
// path (internal/server/conn.go): records are appended into a reused
// pending buffer with binary.AppendUvarint, no per-record allocation.
//
// Snapshot file (snap-<seq>.snap):
//
//	[8]  magic "OFSNAP1\n"
//	[8]  cut sequence number (every record with seq <= cut is included)
//	[8]  entry count
//	entries: uvarint keylen, key bytes, uvarint value
//	[4]  IEEE CRC32 of everything after the magic
//
// Snapshots are written to a temp file and renamed into place, so a
// snapshot either exists completely or not at all.

const (
	segMagic  = "OFWAL1\n\x00"
	snapMagic = "OFSNAP1\n"

	segHeaderLen   = 16
	frameHeaderLen = 8

	tagPut = 0
	tagDel = 1
)

// appendFrame renders one committed transaction's effects as a frame
// at the end of p and returns the grown slice. It performs no
// allocation beyond p's amortized growth.
func appendFrame(p []byte, seq uint64, effects []kv.Effect) []byte {
	start := len(p)
	p = append(p, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc placeholders
	body := len(p)
	p = binary.AppendUvarint(p, seq)
	p = binary.AppendUvarint(p, uint64(len(effects)))
	for i := range effects {
		e := &effects[i]
		if e.Del {
			p = append(p, tagDel)
			p = binary.AppendUvarint(p, uint64(len(e.Key)))
			p = append(p, e.Key...)
		} else {
			p = append(p, tagPut)
			p = binary.AppendUvarint(p, uint64(len(e.Key)))
			p = append(p, e.Key...)
			p = binary.AppendUvarint(p, e.Val)
		}
	}
	binary.LittleEndian.PutUint32(p[start:], uint32(len(p)-body))
	binary.LittleEndian.PutUint32(p[start+4:], crc32.ChecksumIEEE(p[body:]))
	return p
}

// parseFrame reads the frame at the start of b. ok is false when b
// does not hold a complete, CRC-valid frame — the torn-tail signal.
func parseFrame(b []byte) (seq uint64, payload []byte, frameLen int, ok bool) {
	if len(b) < frameHeaderLen {
		return 0, nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(b))
	crc := binary.LittleEndian.Uint32(b[4:])
	if n < 1 || len(b) < frameHeaderLen+n {
		return 0, nil, 0, false
	}
	body := b[frameHeaderLen : frameHeaderLen+n]
	if crc32.ChecksumIEEE(body) != crc {
		return 0, nil, 0, false
	}
	seq, sn := binary.Uvarint(body)
	if sn <= 0 {
		return 0, nil, 0, false
	}
	return seq, body[sn:], frameHeaderLen + n, true
}

// effectIter walks one record payload's effects in place — the single
// decoder of the effect encoding. Recovery's replay accumulator
// (recover.go) and the replication ingest path (DecodeFrames) both read
// through it.
type effectIter struct {
	p []byte // undecoded remainder of the payload
	n uint64 // effects still to decode
}

// iterEffects positions an iterator at a payload's first effect.
func iterEffects(payload []byte) (effectIter, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return effectIter{}, fmt.Errorf("wal: bad effect count")
	}
	return effectIter{p: payload[n:], n: count}, nil
}

// next decodes the effect at the cursor; call it while it.n > 0. key
// aliases the payload — callers that keep it copy it. For a delete val
// is 0. Bytes past the last effect are ignored, as they always were.
func (it *effectIter) next() (key []byte, val uint64, del bool, err error) {
	p := it.p
	if len(p) == 0 {
		return nil, 0, false, fmt.Errorf("wal: effect list cut short")
	}
	tag := p[0]
	klen, n := binary.Uvarint(p[1:])
	if n <= 0 || uint64(len(p)-1-n) < klen {
		return nil, 0, false, fmt.Errorf("wal: bad key length")
	}
	key = p[1+n : 1+n+int(klen)]
	p = p[1+n+int(klen):]
	switch tag {
	case tagPut:
		val, n = binary.Uvarint(p)
		if n <= 0 {
			return nil, 0, false, fmt.Errorf("wal: bad value")
		}
		p = p[n:]
	case tagDel:
		del = true
	default:
		return nil, 0, false, fmt.Errorf("wal: unknown effect tag %d", tag)
	}
	it.p = p
	it.n--
	return key, val, del, nil
}

// encodeSnapshot renders a complete snapshot file image for the given
// cut sequence and pairs.
func encodeSnapshot(cut uint64, pairs []kv.Pair) []byte {
	p := make([]byte, 0, 24+len(pairs)*16)
	p = append(p, snapMagic...)
	p = binary.LittleEndian.AppendUint64(p, cut)
	p = binary.LittleEndian.AppendUint64(p, uint64(len(pairs)))
	for i := range pairs {
		p = binary.AppendUvarint(p, uint64(len(pairs[i].Key)))
		p = append(p, pairs[i].Key...)
		p = binary.AppendUvarint(p, pairs[i].Val)
	}
	return binary.LittleEndian.AppendUint32(p, crc32.ChecksumIEEE(p[len(snapMagic):]))
}

// openSnapshot checks a snapshot file image's magic and CRC and returns
// its cut, entry count and entry region.
func openSnapshot(b []byte) (cut, count uint64, entries []byte, err error) {
	if len(b) < len(snapMagic)+20 || string(b[:len(snapMagic)]) != snapMagic {
		return 0, 0, nil, fmt.Errorf("wal: not a snapshot file")
	}
	body, tail := b[len(snapMagic):len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return 0, 0, nil, fmt.Errorf("wal: snapshot CRC mismatch")
	}
	return binary.LittleEndian.Uint64(body), binary.LittleEndian.Uint64(body[8:]), body[16:], nil
}

// walkSnapshot calls fn for each of a snapshot's count entries in file
// order (sorted by key, see SnapshotImage). key aliases entries.
func walkSnapshot(entries []byte, count uint64, fn func(key []byte, val uint64)) error {
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(entries)
		if n <= 0 || uint64(len(entries[n:])) < klen {
			return fmt.Errorf("wal: snapshot entry cut short")
		}
		key := entries[n : n+int(klen)]
		entries = entries[n+int(klen):]
		val, n := binary.Uvarint(entries)
		if n <= 0 {
			return fmt.Errorf("wal: snapshot value cut short")
		}
		entries = entries[n:]
		fn(key, val)
	}
	return nil
}

// decodeSnapshot parses a snapshot file image into a fresh state map.
func decodeSnapshot(b []byte) (cut uint64, state map[string]uint64, err error) {
	cut, count, entries, err := openSnapshot(b)
	if err != nil {
		return 0, nil, err
	}
	// An entry is at least two bytes, which bounds what a forged count
	// can make the map reserve.
	state = make(map[string]uint64, min(count, uint64(len(entries)/2)))
	err = walkSnapshot(entries, count, func(key []byte, val uint64) { state[string(key)] = val })
	if err != nil {
		return 0, nil, err
	}
	return cut, state, nil
}
