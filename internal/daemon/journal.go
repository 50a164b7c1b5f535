package daemon

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"xmtgo/internal/atomicfile"
)

// Journal record kinds. Together with the checkpoint files they make
// every job state reconstructible after a crash: the journal is the intent
// log, the checkpoint files are the bulky state.
const (
	RecSubmit  = "submit"  // job accepted into the queue (carries the spec)
	RecStart   = "start"   // an attempt began on a worker
	RecCkpt    = "ckpt"    // checkpoint file persisted at this cycle
	RecPreempt = "preempt" // job yielded at a checkpoint (preemption or drain)
	RecDone    = "done"    // terminal: success (carries the result)
	RecFail    = "fail"    // terminal: failure (carries the diagnostic)
	RecCancel  = "cancel"  // terminal: canceled by a client
	RecDrain   = "drain"   // daemon shut down cleanly after this point
)

// Record is one line of the append-only job journal (JSON, one object per
// line). Seq is strictly increasing; replay rejects regressions so a
// corrupted middle of the file cannot masquerade as valid history.
type Record struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`
	ID   string `json:"id,omitempty"`

	Spec    *JobSpec   `json:"spec,omitempty"`    // submit
	Attempt int        `json:"attempt,omitempty"` // start
	Cycle   int64      `json:"cycle,omitempty"`   // ckpt, preempt
	Reason  string     `json:"reason,omitempty"`  // preempt ("preempt"/"drain"), fail
	Result  *JobResult `json:"result,omitempty"`  // done
}

// Journal is the daemon's durable append-only log. Every Append is fsync'd
// before it returns, so once the daemon has acknowledged a submission the
// job survives kill -9: replay on the next startup re-queues every
// non-terminal job.
type Journal struct {
	f    *os.File
	w    *bufio.Writer
	path string
	seq  uint64
}

// OpenJournal opens (creating if absent) the journal at path and replays the
// existing records. A torn final line — the telltale of a crash mid-append —
// is tolerated and truncated away; corruption anywhere else is an error,
// because silently skipping interior history could resurrect completed work.
func OpenJournal(path string) (*Journal, []Record, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, err
	}
	recs, validLen, err := replay(path)
	if err != nil {
		return nil, nil, err
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// Drop the torn tail so the next append starts on a clean line boundary.
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	// Make sure the journal file itself is durable before the first append
	// (a just-created file may not have its directory entry on disk yet).
	if err := atomicfile.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, nil, err
	}

	j := &Journal{f: f, w: bufio.NewWriter(f), path: path}
	if n := len(recs); n > 0 {
		j.seq = recs[n-1].Seq
	}
	return j, recs, nil
}

// replay parses the journal, returning the valid records and the byte length
// of the valid prefix (everything after it is a torn tail to truncate).
func replay(path string) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}

	var recs []Record
	var validLen int64
	var lastSeq uint64
	for off := 0; off < len(data); {
		nl := -1
		for i := off; i < len(data); i++ {
			if data[i] == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			// Unterminated final line: torn append, drop it.
			break
		}
		line := data[off:nl]
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Kind == "" {
			if nl == len(data)-1 {
				// Torn final line that happens to end in a stray newline.
				break
			}
			return nil, 0, fmt.Errorf("daemon: journal %s: corrupt record at byte %d", path, off)
		}
		if rec.Seq <= lastSeq {
			return nil, 0, fmt.Errorf("daemon: journal %s: sequence regressed at byte %d (%d after %d)",
				path, off, rec.Seq, lastSeq)
		}
		lastSeq = rec.Seq
		recs = append(recs, rec)
		off = nl + 1
		validLen = int64(off)
	}
	return recs, validLen, nil
}

// Append stamps the next sequence number on rec, writes it, fsyncs, and
// returns the assigned sequence. When Append returns nil the record is on
// disk; when the process dies mid-call the record is at worst a torn tail
// the next OpenJournal discards — the state machine only ever moves at
// record granularity.
func (j *Journal) Append(rec Record) (uint64, error) {
	j.seq++
	rec.Seq = j.seq
	data, err := json.Marshal(&rec)
	if err != nil {
		return 0, err
	}
	if _, err := j.w.Write(append(data, '\n')); err != nil {
		return 0, err
	}
	if err := j.w.Flush(); err != nil {
		return 0, err
	}
	return j.seq, j.f.Sync()
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	ferr := j.w.Flush()
	serr := j.f.Sync()
	cerr := j.f.Close()
	j.f = nil
	if ferr != nil {
		return ferr
	}
	if serr != nil {
		return serr
	}
	return cerr
}
