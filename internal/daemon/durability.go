package daemon

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"xmtgo/internal/atomicfile"
	"xmtgo/internal/jobrun"
	"xmtgo/internal/sim/checkpoint"
)

// envelope is the per-job checkpoint sidecar (<id>.ckpt): the simulator
// checkpoint plus the output and the instruction count accumulated up to
// it — a jobrun.Point on disk — so a resumed job's final output and Instrs
// are identical to an uninterrupted run's. (Envelopes written before Instrs
// existed decode with 0: such a job under-reports, as every resumed job
// used to.)
type envelope struct {
	Ckpt   []byte // checkpoint.Save bytes (self-versioned)
	Output string
	Instrs uint64
}

func (d *Daemon) envPath(j *job) string {
	return filepath.Join(d.opts.DataDir, j.id+".ckpt")
}

func (d *Daemon) saveEnvelope(j *job, rp jobrun.Point) error {
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, rp.State); err != nil {
		return err
	}
	return atomicfile.WriteFunc(d.envPath(j), 0o644, func(w io.Writer) error {
		return gobEncode(w, &envelope{Ckpt: buf.Bytes(), Output: rp.Output, Instrs: rp.Instrs})
	})
}

// loadEnvelope returns the job's last persisted point, the zero Point
// ("from the start") when it has none.
func (d *Daemon) loadEnvelope(j *job) (jobrun.Point, error) {
	f, err := os.Open(d.envPath(j))
	if os.IsNotExist(err) {
		return jobrun.Point{}, nil
	}
	if err != nil {
		return jobrun.Point{}, err
	}
	defer f.Close()
	var env envelope
	if err := gobDecode(f, &env); err != nil {
		return jobrun.Point{}, fmt.Errorf("daemon: envelope %s: %v", d.envPath(j), err)
	}
	st, err := checkpoint.Load(bytes.NewReader(env.Ckpt))
	if err != nil {
		return jobrun.Point{}, err
	}
	return jobrun.Point{State: st, Output: env.Output, Instrs: env.Instrs}, nil
}
