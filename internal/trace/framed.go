package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"perflow/internal/ir"
)

// Framed trace encoding (TRC2): fixed-size event records (eventWireSize
// bytes each), with each rank's stream written as an independent frame
// carrying its own CRC32. Corruption or truncation therefore damages at
// most the frames it touches, and Salvage can recover the valid event
// prefix of a damaged frame plus every intact frame after it — which is
// what real collection infrastructure has to do when a node dies mid-run
// and leaves a half-written trace file behind.
//
//	header:  magic "TRC2"(4) version(4) nStreams(4) nRanks(4)
//	frame:   count(4) count*58-byte events crc32(4)
//
// The CRC covers the count field and the event payload, little-endian
// IEEE, so a flipped count is detected rather than trusted.

const (
	framedMagic   = 0x54524332 // "TRC2"
	framedVersion = 1
	// maxDecodeRanks bounds the rank space Salvage accepts; it also bounds
	// the stream count (one stream per rank) and every event's Rank field,
	// so hostile headers cannot drive huge allocations or out-of-range
	// indexing.
	maxDecodeRanks = 1 << 20
)

// Salvage condition strings, stable for tests and reports.
const (
	SalvageTruncated = "truncated"
	SalvageChecksum  = "checksum mismatch"
	SalvageBadCount  = "implausible event count"
	SalvageBadEvent  = "invalid event"
)

// EncodeFramed writes the run's event streams in the TRC2 framed format
// and returns the byte count.
func (r *Run) EncodeFramed(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	var buf [eventWireSize]byte
	put := func(b []byte) error {
		m, err := bw.Write(b)
		n += int64(m)
		return err
	}
	binary.LittleEndian.PutUint32(buf[0:], framedMagic)
	binary.LittleEndian.PutUint32(buf[4:], framedVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(r.Events)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(r.NRanks))
	if err := put(buf[:16]); err != nil {
		return n, err
	}
	for _, evs := range r.Events {
		crc := crc32.NewIEEE()
		binary.LittleEndian.PutUint32(buf[0:], uint32(len(evs)))
		crc.Write(buf[:4])
		if err := put(buf[:4]); err != nil {
			return n, err
		}
		for i := range evs {
			putEventWire(&buf, &evs[i])
			crc.Write(buf[:eventWireSize])
			if err := put(buf[:eventWireSize]); err != nil {
				return n, err
			}
		}
		binary.LittleEndian.PutUint32(buf[0:], crc.Sum32())
		if err := put(buf[:4]); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

func putEventWire(buf *[eventWireSize]byte, e *Event) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(e.Rank))
	binary.LittleEndian.PutUint32(buf[4:], uint32(e.Thread))
	buf[8] = byte(e.Kind)
	buf[9] = byte(e.Op)
	binary.LittleEndian.PutUint32(buf[10:], uint32(e.Node))
	binary.LittleEndian.PutUint32(buf[14:], uint32(e.Ctx))
	binary.LittleEndian.PutUint64(buf[18:], math.Float64bits(e.Start))
	binary.LittleEndian.PutUint64(buf[26:], math.Float64bits(e.End))
	binary.LittleEndian.PutUint64(buf[34:], math.Float64bits(e.Wait))
	binary.LittleEndian.PutUint32(buf[42:], uint32(e.Peer))
	binary.LittleEndian.PutUint64(buf[46:], math.Float64bits(e.Bytes))
	binary.LittleEndian.PutUint32(buf[54:], uint32(e.Count))
}

func eventFromWire(buf *[eventWireSize]byte) Event {
	return Event{
		Rank:   int32(binary.LittleEndian.Uint32(buf[0:])),
		Thread: int32(binary.LittleEndian.Uint32(buf[4:])),
		Kind:   Kind(buf[8]),
		Op:     ir.CommKind(buf[9]),
		Node:   ir.NodeID(binary.LittleEndian.Uint32(buf[10:])),
		Ctx:    CtxID(binary.LittleEndian.Uint32(buf[14:])),
		Start:  math.Float64frombits(binary.LittleEndian.Uint64(buf[18:])),
		End:    math.Float64frombits(binary.LittleEndian.Uint64(buf[26:])),
		Wait:   math.Float64frombits(binary.LittleEndian.Uint64(buf[34:])),
		Peer:   int32(binary.LittleEndian.Uint32(buf[42:])),
		Bytes:  math.Float64frombits(binary.LittleEndian.Uint64(buf[46:])),
		Count:  int32(binary.LittleEndian.Uint32(buf[54:])),
	}
}

// saneEvent is the per-event validity check applied when a frame's CRC
// cannot vouch for its contents. Every event a simulator run produces
// passes it, so on truncation-only corruption the whole intact prefix is
// recovered.
func saneEvent(e *Event) bool {
	return e.Rank >= 0 && e.Rank < maxDecodeRanks &&
		e.Kind >= KindCompute && e.Kind <= KindGPUSync &&
		e.Op >= ir.CommSend && e.Op <= ir.CommScatter
}

// StreamSalvage describes the recovery outcome of one declared stream.
type StreamSalvage struct {
	Stream    int
	Recovered int    // events recovered (valid prefix)
	Lost      int    // declared events that could not be recovered
	Err       string // "" when the frame was intact
}

// SalvageReport is the structured outcome of Salvage: what was recovered,
// what was lost, and why. It replaces the error return — salvage always
// produces a (possibly empty) run.
type SalvageReport struct {
	HeaderOK  bool
	HeaderErr string
	// Complete is true when nothing was damaged: the run equals the one
	// that was encoded.
	Complete bool
	Streams  []StreamSalvage
	// MissingStreams counts declared streams with no bytes at all.
	MissingStreams int
}

// LostEvents totals the events known to be lost across streams.
func (sr *SalvageReport) LostEvents() int {
	n := 0
	for _, s := range sr.Streams {
		n += s.Lost
	}
	return n
}

// String summarizes the report in one line.
func (sr *SalvageReport) String() string {
	if sr.Complete {
		return fmt.Sprintf("salvage: complete, %d streams intact", len(sr.Streams))
	}
	var b strings.Builder
	damaged := 0
	for _, s := range sr.Streams {
		if s.Err != "" {
			damaged++
		}
	}
	fmt.Fprintf(&b, "salvage: %d/%d streams damaged, %d events lost", damaged, len(sr.Streams), sr.LostEvents())
	if sr.MissingStreams > 0 {
		fmt.Fprintf(&b, ", %d streams missing", sr.MissingStreams)
	}
	if !sr.HeaderOK {
		fmt.Fprintf(&b, " (%s)", sr.HeaderErr)
	}
	return b.String()
}

// Salvage decodes a TRC2 framed trace, recovering as much as possible
// from corrupt or truncated input. It never returns an error and never
// panics: damaged frames contribute their valid event prefix, missing
// frames contribute empty streams, and the report records exactly what
// was lost. Recovered-but-damaged streams are marked Salvaged (with
// LostEvents) in Run.Status.
func Salvage(r io.Reader) (*Run, *SalvageReport) {
	br := bufio.NewReader(r)
	run := &Run{}
	rep := &SalvageReport{}
	var buf [eventWireSize]byte

	if _, err := io.ReadFull(br, buf[:16]); err != nil {
		rep.HeaderErr = "short header"
		return run, rep
	}
	if binary.LittleEndian.Uint32(buf[0:]) != framedMagic {
		rep.HeaderErr = "bad magic"
		return run, rep
	}
	if binary.LittleEndian.Uint32(buf[4:]) != framedVersion {
		rep.HeaderErr = "unsupported version"
		return run, rep
	}
	nStreams := binary.LittleEndian.Uint32(buf[8:])
	nRanks := binary.LittleEndian.Uint32(buf[12:])
	if nStreams > maxDecodeRanks || nRanks > maxDecodeRanks {
		rep.HeaderErr = "implausible stream or rank count"
		return run, rep
	}
	rep.HeaderOK = true
	run.NRanks = int(nRanks)

	// Grow incrementally: header counts are not trusted until bytes arrive.
	run.Events = make([][]Event, 0, min(int(nStreams), 1024))
	truncated := false // once the input ends mid-frame, framing is gone
	for s := uint32(0); s < nStreams && !truncated; s++ {
		ss := StreamSalvage{Stream: int(s)}
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			rep.MissingStreams = int(nStreams - s)
			break
		}
		crc := crc32.NewIEEE()
		crc.Write(buf[:4])
		cnt := binary.LittleEndian.Uint32(buf[0:])
		if cnt > 1<<28 {
			// The count itself is corrupt; without it the frame boundary is
			// unknowable, so scan greedily and stop afterwards.
			ss.Err = SalvageBadCount
			truncated = true
			cnt = 1 << 28
		}
		evs := make([]Event, 0, min(int(cnt), 4096))
		intact := true
		for i := uint32(0); i < cnt; i++ {
			if _, err := io.ReadFull(br, buf[:eventWireSize]); err != nil {
				if ss.Err == "" {
					ss.Err = SalvageTruncated
				}
				ss.Lost = int(cnt - i)
				truncated = true
				intact = false
				break
			}
			crc.Write(buf[:eventWireSize])
			ev := eventFromWire(&buf)
			if !saneEvent(&ev) {
				// Keep the valid prefix; everything after the first mangled
				// record in this frame is suspect.
				if ss.Err == "" {
					ss.Err = SalvageBadEvent
				}
				ss.Lost += int(cnt - i)
				intact = false
				// Skip the remaining declared bytes to preserve framing for
				// the streams that follow.
				toSkip := int64(cnt-i-1)*eventWireSize + 4
				if _, err := io.CopyN(io.Discard, br, toSkip); err != nil {
					truncated = true
				}
				break
			}
			evs = append(evs, ev)
		}
		if intact && ss.Err == "" {
			if _, err := io.ReadFull(br, buf[:4]); err != nil {
				ss.Err = SalvageTruncated
				truncated = true
			} else if binary.LittleEndian.Uint32(buf[0:]) != crc.Sum32() {
				// Every record individually parsed but the checksum
				// disagrees: some field was silently flipped. Keep the
				// events (they are structurally valid) but flag the stream
				// so analysis treats its metrics as unreliable.
				ss.Err = SalvageChecksum
			}
		}
		ss.Recovered = len(evs)
		rep.Streams = append(rep.Streams, ss)
		run.Events = append(run.Events, evs)
	}

	// Pad to the declared stream count so rank indexing stays aligned.
	for len(run.Events) < int(nStreams) {
		run.Events = append(run.Events, nil)
	}
	if run.NRanks < len(run.Events) {
		run.NRanks = len(run.Events)
	}

	run.Elapsed = make([]float64, run.NRanks)
	damaged := false
	for si, evs := range run.Events {
		for i := range evs {
			if r := int(evs[i].Rank); r < run.NRanks && evs[i].End > run.Elapsed[r] {
				run.Elapsed[r] = evs[i].End
			}
		}
		hurt := si >= len(rep.Streams) || rep.Streams[si].Err != ""
		if hurt {
			damaged = true
			if run.Status == nil {
				run.Status = make([]RankStatus, len(run.Events))
			}
			run.Status[si].Salvaged = true
			if si < len(rep.Streams) {
				run.Status[si].LostEvents = rep.Streams[si].Lost
			}
		}
	}
	rep.Complete = rep.HeaderOK && !damaged && rep.MissingStreams == 0
	return run, rep
}
