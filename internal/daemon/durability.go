package daemon

import (
	"errors"
	"io/fs"
	"path/filepath"

	"xmtgo/internal/sim/checkpoint"
)

// ckptPath is the job's checkpoint file (<id>.ckpt): a plain checkpoint,
// which carries the output and instruction total of the run up to it.
func (d *Daemon) ckptPath(j *job) string {
	return filepath.Join(d.opts.DataDir, j.id+".ckpt")
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
