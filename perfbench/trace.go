package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer and a
// per-frame ledger keyed by origin sequence. Everything stays in memory
// until write, at the end of the run. A nil *tracer records nothing, so
// untraced runs pay one nil check per call site.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span // guarded by mu

	ledger *ledger
}

// span is one timed call: name, start and end (ns since the run began)
// and the id of the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its id; pass it to end.
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-timed call.
func (t *tracer) add(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans)) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(),
	})
	t.mu.Unlock()
}

// ledger is the per-frame record of a traced run: for each origin
// sequence, its generation stamp and its arrival at every observation
// point (the origin probe, each leaf, the player boundary). Columns are
// preallocated for the sequences the run can generate; each observer owns
// its column, so recording takes no lock.
type ledger struct {
	gen     []int64
	columns []string
	at      [][]int64
}

func newLedger(maxSeq int, columns ...string) *ledger {
	l := &ledger{gen: make([]int64, maxSeq), columns: columns, at: make([][]int64, len(columns))}
	for i := range l.at {
		l.at[i] = make([]int64, maxSeq)
	}
	return l
}

// column returns the index of a named observation point, adding it if
// new. Call before the observers start.
func (l *ledger) column(name string) int {
	for i, c := range l.columns {
		if c == name {
			return i
		}
	}
	l.columns = append(l.columns, name)
	l.at = append(l.at, make([]int64, len(l.gen)))
	return len(l.columns) - 1
}

// note records origin sequence seq, generated at gen, arriving at column
// col at time at (UnixNano). Column 0's observers also own the generation
// stamps. Sequences past the preallocated range are ignored.
func (l *ledger) note(col int, seq uint64, gen, at int64) {
	if l == nil || seq >= uint64(len(l.gen)) {
		return
	}
	if col == 0 {
		l.gen[seq] = gen
	}
	l.at[col][seq] = at
}

// write saves spans (JSON lines) and the ledger (CSV, ns relative to the
// generation stamp, empty where a frame was not seen) under dir.
func (t *tracer) write(dir, prefix string) ([]string, error) {
	if t == nil {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace dir: %w", err)
	}
	spanPath := filepath.Join(dir, prefix+"-spans.jsonl")
	if err := writeFile(spanPath, func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		t.mu.Lock()
		defer t.mu.Unlock()
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	files := []string{spanPath}
	if l := t.ledger; l != nil {
		ledgerPath := filepath.Join(dir, prefix+"-ledger.csv")
		if err := writeFile(ledgerPath, func(w *bufio.Writer) error {
			fmt.Fprint(w, "seq,gen_unix_ns")
			for _, c := range l.columns {
				fmt.Fprintf(w, ",%s_after_gen_ns", c)
			}
			fmt.Fprintln(w)
			for seq, g := range l.gen {
				if g == 0 {
					continue
				}
				fmt.Fprintf(w, "%d,%d", seq, g)
				for i := range l.columns {
					if a := l.at[i][seq]; a != 0 {
						fmt.Fprintf(w, ",%d", a-g)
					} else {
						fmt.Fprint(w, ",")
					}
				}
				fmt.Fprintln(w)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		files = append(files, ledgerPath)
	}
	return files, nil
}

func writeFile(path string, body func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := body(w); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
