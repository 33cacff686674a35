package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/mcc"
	"repro/internal/model"
)

// The commit journal is the fleet server's durable record of committed
// state: one "baseline" record per registered vehicle (platform +
// initial architecture) followed by one "change" record per accepted
// proposal, in commit order. A restarted server replays the journal to
// rebuild every vehicle's exact decision trajectory — the same replay
// the in-process supervisor uses after a worker crash.
//
// Records are length-prefixed, individually gob-encoded frames. Framing
// (rather than one long gob stream) buys torn-tail tolerance: a crash
// mid-append leaves a truncated final frame, recovery keeps the complete
// prefix and truncates the garbage, and subsequent appends land on a
// clean boundary. A torn tail can only lose acceptances whose reply had
// not been sent — appends happen before the requester hears "accepted".

// journalKind discriminates journal records.
type journalKind string

const (
	recBaseline journalKind = "baseline"
	recChange   journalKind = "change"
)

// journalRecord is one framed journal entry.
type journalRecord struct {
	Vehicle  string
	Kind     journalKind
	Platform *model.Platform               // baseline records only
	Baseline *model.FunctionalArchitecture // baseline records only
	Change   *mcc.Change                   // change records only
}

// recoveredVehicle is one vehicle's committed state as replayed from the
// journal: the registration inputs plus every accepted change in order.
type recoveredVehicle struct {
	Platform *model.Platform
	Baseline *model.FunctionalArchitecture
	Changes  []mcc.Change
}

// commitJournal appends framed records to an open journal file.
type commitJournal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal opens (creating if absent) the journal at path, replays
// every complete record, truncates a torn tail if one is found, and
// returns the journal positioned for appending plus the recovered
// per-vehicle state in registration order.
func openJournal(path string) (*commitJournal, map[string]*recoveredVehicle, []string, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, nil, err
	}
	recovered := make(map[string]*recoveredVehicle)
	var order []string
	good := int64(0)
	for {
		rec, n, err := readFrame(f)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn or corrupt tail: keep the complete prefix, drop the rest.
			break
		}
		good += n
		switch rec.Kind {
		case recBaseline:
			if _, dup := recovered[rec.Vehicle]; !dup {
				order = append(order, rec.Vehicle)
			}
			recovered[rec.Vehicle] = &recoveredVehicle{
				Platform: rec.Platform,
				Baseline: rec.Baseline,
			}
		case recChange:
			if v := recovered[rec.Vehicle]; v != nil && rec.Change != nil {
				v.Changes = append(v.Changes, *rec.Change)
			}
		}
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	return &commitJournal{f: f}, recovered, order, nil
}

// readFrame decodes one length-prefixed record, returning the bytes
// consumed so the caller can track the last good offset.
func readFrame(r io.Reader) (journalRecord, int64, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// io.EOF is a clean end; a partial prefix surfaces as
		// io.ErrUnexpectedEOF and the caller drops the torn tail.
		return journalRecord{}, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	const maxFrame = 64 << 20 // a frame this large is corruption, not data
	if n == 0 || n > maxFrame {
		return journalRecord{}, 0, fmt.Errorf("fleet: journal frame length %d out of range", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return journalRecord{}, 0, err
	}
	var rec journalRecord
	if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(&rec); err != nil {
		return journalRecord{}, 0, err
	}
	return rec, int64(4 + n), nil
}

// append frames and writes one record. Appends are serialized; the file
// is not fsynced per record (close syncs it, at drain), so the journal is
// crash-consistent but the tail is only as durable as the OS page cache.
func (j *commitJournal) append(rec journalRecord) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(buf.Len()))
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(hdr[:]); err != nil {
		return err
	}
	_, err := j.f.Write(buf.Bytes())
	return err
}

// close syncs and closes the journal file.
func (j *commitJournal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
