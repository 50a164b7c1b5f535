package daemon

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"xmtgo/internal/sim/checkpoint"
)

// ckptPath is the job's checkpoint file (<id>.ckpt): a plain checkpoint,
// which carries the output and instruction total of the run up to it.
func (d *Daemon) ckptPath(j *job) string {
	return filepath.Join(d.opts.DataDir, j.id+".ckpt")
}

// journalTerminal journals a job's terminal record and, once that is
// durable, deletes the job's checkpoint file: replay will never resume the
// job again. A file a crash before the unlink, or a failed unlink, leaves
// behind is deleted at the next startup (sweepCheckpoints). When the record
// does not reach the journal the file stays, since replay re-queues the
// job and it resumes from there.
func (d *Daemon) journalTerminal(j *job, rec Record, tenant string) {
	if _, err := d.appendT(rec, tenant); err != nil {
		return
	}
	if err := os.Remove(d.ckptPath(j)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		j.log.Warn("checkpoint not removed", "op", "run", "file", d.ckptPath(j), "err", err.Error())
	}
}

// sweepCheckpoints deletes at startup every checkpoint file no queued job
// will resume from: the <id>.ckpt of a terminal job or of an id the journal
// does not know, and the temp file (<id>.ckpt.tmp*) of a write a crash
// interrupted. Files whose names are not a job id's are not the daemon's
// and are left alone.
func (d *Daemon) sweepCheckpoints() {
	ents, err := os.ReadDir(d.opts.DataDir)
	if err != nil {
		d.obs.log.Warn("checkpoint sweep skipped", "op", "recover", "err", err.Error())
		return
	}
	for _, e := range ents {
		id, rest, ok := strings.Cut(e.Name(), ".ckpt")
		if !ok || !isJobID(id) || (rest != "" && !strings.HasPrefix(rest, ".tmp")) {
			continue
		}
		if j := d.jobs[id]; rest == "" && j != nil && j.state == StateQueued {
			continue
		}
		if err := os.Remove(filepath.Join(d.opts.DataDir, e.Name())); err != nil {
			d.obs.log.Warn("checkpoint not removed", "op", "recover", "file", e.Name(), "err", err.Error())
		}
	}
}

// isJobID reports whether s has the form of the ids Submit hands out
// (j<decimal>).
func isJobID(s string) bool {
	if len(s) < 2 || s[0] != 'j' {
		return false
	}
	for _, c := range s[1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// loadCheckpoint returns the job's last persisted state, nil ("from the
// start") when it has none. A file that does not load as a current
// checkpoint — one of an older format, or damaged — is not resumed: the job
// restarts from cycle 0, which reaches the same result because runs are
// deterministic, and a warning names the file and the error.
func (d *Daemon) loadCheckpoint(j *job) *checkpoint.State {
	path := d.ckptPath(j)
	st, err := checkpoint.LoadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil
	case err != nil:
		j.log.Warn("checkpoint not resumable; restarting from cycle 0", "op", "run",
			"file", path, "err", err.Error())
		return nil
	}
	return st
}
