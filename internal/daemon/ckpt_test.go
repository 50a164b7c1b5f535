package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"xmtgo/internal/jobrun"
	"xmtgo/internal/sim/checkpoint"
	"xmtgo/internal/sim/funcmodel"
)

// dirNames lists a directory's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestDaemonRemovesFinishedCheckpoints: a job that checkpointed and then
// finished — done, canceled while running, or failed at its deadline —
// leaves no <id>.ckpt behind once Wait returns, so the data directory holds
// only the journal.
func TestDaemonRemovesFinishedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	d := newDaemon(t, dir, nil)
	defer d.Close()

	done := mustSubmit(t, d, &JobSpec{Name: "done", Source: loopSrc(100_000)})
	mustDone(t, d, done.ID)
	failed := mustSubmit(t, d, &JobSpec{Name: "late", Source: loopSrc(longIters), DeadlineCycles: 150_000})
	if st, aerr := d.Wait(failed.ID, 30*time.Second); aerr != nil || st.State != StateFailed {
		t.Fatalf("deadline job: %+v, %v", st, aerr)
	}
	canceled := mustSubmit(t, d, &JobSpec{Name: "cancel", Source: loopSrc(longIters)})
	waitFor(t, "a checkpoint of the job to cancel", func() bool {
		st, _ := d.Status(canceled.ID)
		return st != nil && st.Cycles > 0
	})
	d.Cancel(canceled.ID)
	if st, aerr := d.Wait(canceled.ID, 30*time.Second); aerr != nil || st.State != StateCanceled {
		t.Fatalf("canceled job: %+v, %v", st, aerr)
	}

	if names := dirNames(t, dir); !slices.Equal(names, []string{"jobs.journal"}) {
		t.Fatalf("data directory holds %v after three finished jobs, want only jobs.journal", names)
	}
	_, recs, err := OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	ckpts := map[string]int{}
	for _, r := range recs {
		if r.Kind == RecCkpt {
			ckpts[r.ID]++
		}
	}
	for _, id := range []string{done.ID, failed.ID, canceled.ID} {
		if ckpts[id] == 0 {
			t.Errorf("job %s journaled no checkpoint: the test premise is broken", id)
		}
	}
}

// TestDaemonSweepsCheckpointsAtStartup recovers a data directory a crash
// left between a job's terminal record and the unlink of its checkpoint:
// startup deletes that file, the checkpoint of an id the journal does not
// know and the temp file of an interrupted write, keeps the checkpoint of
// the job still queued — which then resumes from it — and leaves files that
// are not a job's alone.
func TestDaemonSweepsCheckpointsAtStartup(t *testing.T) {
	spec := JobSpec{Name: "live", Kind: "asm", Source: loopSrc(100_000)}
	want := refResult(t, spec)

	prog, _, err := jobrun.Load(spec.Kind, spec.Name, spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	errStop := errors.New("stop")
	var first *checkpoint.State
	run := jobrun.Runner{Prog: prog, Config: testConfig(t), CheckpointEvery: 50000,
		Checkpointed: func(next *checkpoint.State) error { first = next; return errStop }}
	if _, err := run.Attempt(nil, 0); !errors.Is(err, errStop) || first == nil {
		t.Fatalf("no checkpoint: %v", err)
	}

	dir := t.TempDir()
	for _, name := range []string{"j1.ckpt", "j2.ckpt", "j9.ckpt", "j2.ckpt.tmp123", "notes.ckpt"} {
		if err := checkpoint.SaveFile(filepath.Join(dir, name), first); err != nil {
			t.Fatal(err)
		}
	}
	jl, _, err := OpenJournal(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Kind: RecSubmit, ID: "j1", Spec: &spec},
		{Kind: RecStart, ID: "j1", Attempt: 1},
		{Kind: RecCkpt, ID: "j1", Cycle: first.CycleOffset},
		{Kind: RecDone, ID: "j1", Result: want},
		{Kind: RecSubmit, ID: "j2", Spec: &spec},
		{Kind: RecStart, ID: "j2", Attempt: 1},
		{Kind: RecCkpt, ID: "j2", Cycle: first.CycleOffset},
	} {
		if _, err := jl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	d := newDaemon(t, dir, nil)
	defer d.Close()
	res := mustDone(t, d, "j2")
	sameResult(t, res, want, "job resumed past the sweep")
	if st, _ := d.Status("j2"); st.Resumes != 1 {
		t.Errorf("j2 resumes = %d, want 1: its checkpoint must survive the sweep", st.Resumes)
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{"jobs.journal", "notes.ckpt"}) {
		t.Fatalf("data directory holds %v, want jobs.journal and the foreign notes.ckpt", names)
	}
}

// funcMemHash is the memhash of src's functional-mode run, computed here
// with hash/fnv over the dense memory image, the global registers and the
// output.
func funcMemHash(t *testing.T, kind, src string) string {
	t.Helper()
	prog, _, err := jobrun.Load(kind, "ref", src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m, err := funcmodel.New(prog, 1<<20, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer m.ReleaseMemory()
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(m.Mem)
	for _, g := range m.G {
		h.Write([]byte{byte(g), byte(g >> 8), byte(g >> 16), byte(g >> 24)})
	}
	io.WriteString(h, out.String())
	return fmt.Sprintf("%016x", h.Sum64())
}

// fillSrc leaves 160 KB of non-zero words over the data segment and a
// recursion's frames at the top of memory.
const fillSrc = `
int A[40000];
int depth(int n) {
    if (n == 0) return 0;
    return depth(n - 1) + 1;
}
int main() {
    for (int i = 0; i < 40000; i++) {
        A[i] = i + 1;
    }
    print_int(A[39999] + depth(200));
    return 0;
}
`

// TestDaemonPooledMemoryDoesNotLeak runs two jobs of different programs
// back to back on one worker, the second segmented by checkpoints, so both
// run on memory the first one dirtied and gave back to the pool: each
// job's memhash must be its fresh functional run's.
func TestDaemonPooledMemoryDoesNotLeak(t *testing.T) {
	jobs := []JobSpec{
		{Name: "fill", Kind: "xmtc", Source: fillSrc},
		{Name: "loop", Kind: "asm", Source: loopSrc(shortIters)},
	}
	var want []string
	for _, spec := range jobs {
		want = append(want, funcMemHash(t, spec.Kind, spec.Source))
	}
	d := newDaemon(t, t.TempDir(), func(o *Options) { o.CheckpointEvery = 1000 })
	defer d.Close()
	for i := range jobs {
		res := mustDone(t, d, mustSubmit(t, d, &jobs[i]).ID)
		if res.MemHash != want[i] {
			t.Errorf("%s: memhash %s, fresh functional run %s", jobs[i].Name, res.MemHash, want[i])
		}
	}
}
