package console

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync"

	"titanre/internal/tsv"
)

// Sharded parallel log parsing.
//
// ParseAllParallel splits the log at newline boundaries into one chunk
// per worker, parses the chunks concurrently (each worker with its own
// Decoder and operational counters), and concatenates the per-shard
// results in file order. Because shard boundaries sit exactly on
// newlines, every line is seen by exactly one worker whole, so the
// resulting []Event — and the summed counters — are identical to the
// serial walk at any worker count.

// lineReader yields lines from an io.Reader without allocating a string
// per line. Unlike bufio.Scanner it survives oversized records: a line
// longer than maxLineBytes is discarded up to the next newline and
// counted, instead of aborting the whole parse with ErrTooLong.
type lineReader struct {
	br        *bufio.Reader
	spill     []byte
	oversized int
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// next returns the next line with its trailing newline (and at most one
// carriage return) removed. ok=false means clean end of input. The
// returned slice is only valid until the following call.
func (lr *lineReader) next() (line []byte, ok bool, err error) {
	lr.spill = lr.spill[:0]
	for {
		chunk, rerr := lr.br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			lr.spill = append(lr.spill, chunk...)
			// +1 slack: a line of maxLineBytes+1 raw bytes may still
			// trim to exactly maxLineBytes if it ends in \r, and must
			// not be discarded early — the trimmed-length check below
			// decides, identically to the sharded path.
			if len(lr.spill) > maxLineBytes+1 {
				lr.oversized++
				switch derr := lr.discardLine(); derr {
				case nil:
					lr.spill = lr.spill[:0]
					continue
				case io.EOF:
					return nil, false, nil
				default:
					return nil, false, derr
				}
			}
			continue
		}
		if rerr != nil && rerr != io.EOF {
			return nil, false, fmt.Errorf("reading log: %w", rerr)
		}
		line := chunk
		if len(lr.spill) > 0 {
			lr.spill = append(lr.spill, chunk...)
			line = lr.spill
		}
		atEOF := rerr == io.EOF
		if atEOF && len(line) == 0 {
			return nil, false, nil
		}
		line = trimEOL(line)
		if len(line) > maxLineBytes {
			lr.oversized++
			if atEOF {
				return nil, false, nil
			}
			lr.spill = lr.spill[:0]
			continue
		}
		return line, true, nil
	}
}

// discardLine skips the remainder of an oversized record. io.EOF means
// the record ran to the end of the input.
func (lr *lineReader) discardLine() error {
	for {
		_, err := lr.br.ReadSlice('\n')
		switch err {
		case nil:
			return nil
		case bufio.ErrBufferFull:
			continue
		default:
			return err
		}
	}
}

// trimEOL drops one trailing newline and one trailing carriage return:
// the scanner already isolates lines at \n, so only the \r of a CRLF
// ending needs handling.
func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// ParseAllParallel is ParseAll over worker-count shards. The whole log is
// read into memory (pre-sized from Stat when r is a file, so the read
// allocates once instead of doubling), split at newline boundaries,
// parsed concurrently and concatenated in file order; events and
// counters are identical to the serial path at any worker count.
func (c *Correlator) ParseAllParallel(r io.Reader, workers int) ([]Event, error) {
	data, err := tsv.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("console: reading log: %w", err)
	}
	return c.ParseBytes(data, workers)
}

// ParseBytes parses an in-memory console log across the given number of
// shards. It is the core of ParseAllParallel, exposed for callers that
// already hold the bytes.
func (c *Correlator) ParseBytes(data []byte, workers int) ([]Event, error) {
	if workers < 1 {
		workers = 1
	}
	// Don't bother fanning out over tiny inputs.
	if max := len(data)/(64<<10) + 1; workers > max {
		workers = max
	}

	// One shard is the caller's own walk: no goroutine, no second slice.
	if workers == 1 {
		events, _ := c.walk(nil, nil, data, false, &Decoder{})
		return events, nil
	}

	// Shard boundaries: the s-th shard starts at the first newline at or
	// after s/workers of the file, so every boundary is a line start.
	starts := make([]int, workers+1)
	starts[workers] = len(data)
	for s := 1; s < workers; s++ {
		pos := len(data) * s / workers
		if pos < starts[s-1] {
			pos = starts[s-1]
		}
		if nl := bytes.IndexByte(data[pos:], '\n'); nl >= 0 {
			starts[s] = pos + nl + 1
		} else {
			starts[s] = len(data)
		}
	}
	for s := 1; s < workers; s++ {
		if starts[s] < starts[s-1] {
			starts[s] = starts[s-1]
		}
	}

	// Each shard walks with its own correlator over the shared (read-only)
	// rule set, so workers book counters without contending.
	shards := make([]Correlator, workers)
	results := make([][]Event, workers)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		shards[s] = Correlator{rules: c.rules, fast: c.fast}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s], _ = shards[s].walk(nil, nil, data[starts[s]:starts[s+1]], false, &Decoder{})
		}(s)
	}
	wg.Wait()

	total := 0
	for i := range results {
		total += len(results[i])
	}
	out := make([]Event, 0, total)
	for i := range results {
		out = append(out, results[i]...)
		c.addCounters(&shards[i])
	}
	return out, nil
}

// AppendBytes is ParseBytes with one shard, appending onto events for a
// caller that recycles its slices batch after batch. With indexed set it
// also appends each event's 0-based line index within data onto idxs.
// Indices count every newline-delimited record — empty, oversized, and
// chatter lines included — exactly like CountLines and SplitBatch, so a
// router that split a batch can map the j-th event of a sub-batch back
// to its original batch line (and from there to a global sequence
// number). d is the walk's decoder: one that keeps renderings (see
// Decoder) ends holding one record per appended event, in order. An
// Event holds no reference into data, so data may be reused as soon as
// AppendBytes returns.
func (c *Correlator) AppendBytes(events []Event, idxs []int32, data []byte, indexed bool, d *Decoder) ([]Event, []int32) {
	return c.walk(events, idxs, data, indexed, d)
}

// walk is the one in-memory line walk: every newline-delimited record of
// data in order, blank lines skipped, oversized ones counted, the rest
// through decodeLine, counters booked on c, events appended onto events.
// With indexed set it also appends each event's 0-based record index
// onto idxs.
func (c *Correlator) walk(events []Event, idxs []int32, data []byte, indexed bool, d *Decoder) ([]Event, []int32) {
	// On a clean log every line is an event; growing by the line count up
	// front turns the append-doubling of a multi-megabyte shard into one
	// allocation, and into none when the caller's slice already has room.
	lines := bytes.Count(data, []byte{'\n'}) + 1
	events = slices.Grow(events, lines)
	if indexed {
		idxs = slices.Grow(idxs, lines)
	}
	idx := int32(-1)
	for off := 0; off < len(data); {
		idx++
		line := data[off:]
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
			off += nl + 1
		} else {
			off = len(data)
		}
		line = trimEOL(line)
		if len(line) == 0 {
			continue
		}
		if len(line) > maxLineBytes {
			c.Oversized++
			continue
		}
		if ev, ok := c.decodeLine(d, line); ok {
			events = append(events, ev)
			if indexed {
				idxs = append(idxs, idx)
			}
		}
	}
	return events, idxs
}
