// Package wal is the durability substrate of the live-update path: a
// write-ahead log of graph.Delta records. Every update a primary accepts
// is appended — and fsynced — here before it is applied to the serving
// engine, so a crash loses nothing: recovery loads the newest snapshot and
// replays the log tail (semprox.ReplayWAL), and a follower replica streams
// the same records over HTTP (internal/replica) to stay byte-identical
// with the primary.
//
// On-disk layout: a directory of segment files named
// wal-<firstLSN:016x>.seg. Each segment starts with an 16-byte header
// (magic + the first LSN it stores, big endian) followed by records:
//
//	uint32 length | uint32 CRC32-C of payload | payload
//	payload = uvarint LSN ++ uvarint term ++ graph.AppendDelta encoding
//
// There is one format: the magic is "SPXWAL02" and every payload carries
// a term (promotion epoch) varint. A segment with any other magic —
// including the term-less one of early checkouts, which nothing writes
// — is refused at Open with an error that quotes it.
//
// LSNs (log sequence numbers) are assigned contiguously from 1 (or
// Options.BaseLSN+1), one per appended delta, and match the engine's LSN
// counter: a snapshot taken at LSN L is superseded exactly by the records
// with LSN > L. Terms order write authority across promotions: a newly
// promoted primary bumps the log's term (SetTerm), every later record is
// stamped with it, and terms never decrease along the LSN order — a
// term regression on read is corruption (or a zombie's writes) and fails
// the scan. The current term survives restarts in a sidecar file
// ("term"), written and fsynced atomically BEFORE any record carries the
// new term. A second sidecar ("skipped", one decimal LSN per line)
// durably records the rare record that was appended but then rejected by
// the engine and intentionally skipped — see RecordSkip.
//
// Durability: appends batch fsyncs through a two-stage pipeline — a
// writer goroutine drains encoded records and issues the write() while a
// syncer goroutine fsyncs the previous batch, so batch N+1 is being
// written (and N+2 accumulating) while batch N's fsync is in flight.
// AppendAsync returns as soon as the record is sequenced and WaitDurable
// supplies the durability barrier separately (Append is the two in
// sequence), which lets a server apply an update to its in-memory state
// while the fsync is still in flight and only delay the client's ack —
// never visibility ordering — on the disk. A torn tail write (crash
// mid-record) is detected by length/CRC at Open and truncated away;
// corruption in any sealed (non-final) segment is an error, never
// silently skipped. Options.Inject mounts a fault-injection schedule
// (internal/faultfs) on every write/fsync/create path so tests prove
// those claims with real injected failures.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/faultfs"
	"repro/internal/graph"
)

const (
	// segMagic opens every segment file.
	segMagic = "SPXWAL02"
	// headerSize is the segment header: magic plus the first LSN.
	headerSize = len(segMagic) + 8
	// frameSize prefixes every record: payload length plus CRC.
	frameSize = 8
	// MaxRecordBytes bounds one record payload; larger lengths in a frame
	// indicate corruption, and larger deltas must be split by the caller.
	MaxRecordBytes = 1 << 26
	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes unset.
	DefaultSegmentBytes = 64 << 20
)

// castagnoli is the CRC32-C table used for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open.
type Options struct {
	// SegmentBytes rotates to a fresh segment once the active one reaches
	// this size (checked between group commits). <= 0 means
	// DefaultSegmentBytes.
	SegmentBytes int64
	// BaseLSN seeds the LSN counter when the directory holds no records:
	// the first append gets BaseLSN+1. Use the LSN of the snapshot the
	// engine booted from so log and engine stay aligned. Ignored when the
	// directory already has records.
	BaseLSN uint64
	// Inject, when non-nil, is consulted before every write, fsync and
	// segment creation — the fault-injection hook tests use to fail I/O
	// on a schedule. Nil in production.
	Inject *faultfs.Injector
}

// Record is one logged delta.
type Record struct {
	LSN   uint64
	Term  uint64
	Delta graph.Delta
}

// segment tracks one on-disk segment file.
type segment struct {
	path  string
	first uint64 // first LSN the segment stores (header-declared)
	last  uint64 // last LSN written, 0 while empty
}

// syncReq asks the syncer goroutine for one fsync of f. last, when
// non-zero, is the LSN the durable watermark advances to once the fsync
// succeeds. done, when non-nil, is closed after the request is handled —
// the writer's rotation barrier.
type syncReq struct {
	f    *os.File
	last uint64
	done chan struct{}
}

// WAL is an append-only log of deltas. All methods are safe for
// concurrent use.
type WAL struct {
	dir  string
	opts Options

	mu   sync.Mutex
	cond *sync.Cond // guards + signals pending/durable/err transitions

	// pending holds encoded frames not yet handed to the writer;
	// pendingFirst/pendingLast are the LSN range inside it.
	pending      []byte
	pendingFirst uint64
	pendingLast  uint64

	next     uint64 // next LSN to assign
	durable  uint64 // highest LSN fsynced to disk
	term     uint64 // current term, stamped on every new record
	lastTerm uint64 // term of the newest record in the log (0 when empty)
	err      error  // sticky I/O failure; fails all later appends
	closed   bool

	active     *os.File
	activeSize int64
	segments   []segment

	// watch is closed and replaced every time durable advances, so
	// WaitSince can block without polling.
	watch chan struct{}

	// tail is an in-memory copy of the most recent records (encoded
	// delta payloads), so steady-state replication polls (Since/SinceRaw
	// for an almost-caught-up follower) never touch disk. Bounded by
	// tailMaxRecords/tailMaxBytes; older reads fall back to the segment
	// files.
	tail      []tailRec
	tailBytes int

	// skips holds the LSNs of records that were appended but then
	// rejected by the engine and intentionally skipped (RecordSkip) —
	// loaded from the sidecar skip-list file at Open.
	skips map[uint64]bool

	// writing marks an active commit leader: the one goroutine currently
	// allowed to drain pending and issue the write(). Leadership is
	// transient — an appender that finds no leader becomes one for a
	// single batch — with the flusher goroutine as the fallback for
	// records nobody is waiting on (AppendAsync stragglers).
	writing bool

	syncCh      chan syncReq
	flusherDone chan struct{}
	syncerDone  chan struct{}
}

// skipsFile names the sidecar in the log directory that durably records
// skipped LSNs, one decimal number per line.
const skipsFile = "skipped"

// termFile names the sidecar that persists the current term as one
// decimal number. Written atomically (and fsynced) BEFORE any record is
// stamped with a raised term, so a restart can never observe a record
// whose term exceeds the sidecar's.
const termFile = "term"

// tailRec is one in-memory record: the LSN, its term, and the encoded
// delta.
type tailRec struct {
	lsn   uint64
	term  uint64
	delta []byte
}

const (
	tailMaxRecords = 1024
	tailMaxBytes   = 4 << 20
)

// Open opens (creating if needed) the log in dir and recovers its tail: a
// torn or corrupt trailing record in the final segment is truncated away,
// while corruption in a sealed segment is an error. The returned WAL is
// ready to append at LSN DurableLSN()+1.
func Open(dir string, opts Options) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{
		dir: dir, opts: opts,
		watch:       make(chan struct{}),
		syncCh:      make(chan syncReq, 4),
		flusherDone: make(chan struct{}),
		syncerDone:  make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	if err := w.recover(); err != nil {
		return nil, err
	}
	if err := w.loadTerm(); err != nil {
		return nil, err
	}
	if err := w.loadSkips(); err != nil {
		return nil, err
	}
	w.registerGauges()
	go w.flusherLoop()
	go w.syncerLoop()
	return w, nil
}

// loadSkips reads the sidecar skip list (missing file = no skips).
func (w *WAL) loadSkips() error {
	data, err := os.ReadFile(filepath.Join(w.dir, skipsFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.skips = make(map[uint64]bool)
	for _, field := range strings.Fields(string(data)) {
		n, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return fmt.Errorf("wal: skip list: bad entry %q", field)
		}
		w.skips[n] = true
	}
	return nil
}

// loadTerm restores the current term from its sidecar. A missing file —
// a fresh log, or one written before terms existed — starts at the term
// of the newest record (1 when the log is empty, matching how legacy
// records read back). A sidecar BEHIND the newest record's term breaks
// the write-sidecar-first invariant and can only mean mispaired files,
// so it is an error, not something to repair silently.
func (w *WAL) loadTerm() error {
	w.term = w.lastTerm
	if w.term == 0 {
		w.term = 1
	}
	data, err := os.ReadFile(filepath.Join(w.dir, termFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	n, perr := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if perr != nil || n == 0 {
		return fmt.Errorf("wal: term sidecar: bad entry %q", strings.TrimSpace(string(data)))
	}
	if n < w.lastTerm {
		return fmt.Errorf("wal: term sidecar says %d but the log holds a record at term %d — mispaired directory", n, w.lastTerm)
	}
	w.term = n
	return nil
}

// Term returns the log's current term: the one every new record is
// stamped with. Starts at 1 and only moves up (SetTerm).
func (w *WAL) Term() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.term
}

// LastTerm returns the term of the newest record in the log, or 0 when
// the log holds no records. It can lag Term: SetTerm raises the current
// term before any record carries it.
func (w *WAL) LastTerm() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastTerm
}

// SetTerm raises the current term to t, durably (sidecar write +
// fsync) before returning; every later append is stamped with t. A
// promotion is exactly SetTerm(Term()+1) on the winning follower's
// local log. Lowering the term is refused — terms are the fencing
// order, and regressing one would let a zombie's records interleave as
// if current. Setting the current term again is a no-op.
func (w *WAL) SetTerm(t uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("wal: closed")
	}
	if t < w.term {
		return fmt.Errorf("wal: term regression: have %d, asked to set %d", w.term, t)
	}
	if t == w.term {
		return nil
	}
	return w.setTermLocked(t)
}

// setTermLocked persists and adopts a raised term. Caller holds w.mu. A
// failed sidecar write poisons the log: records stamped with an
// unpersisted term would read back as "from the future" after a
// restart.
func (w *WAL) setTermLocked(t uint64) error {
	if err := atomicfile.Write(filepath.Join(w.dir, termFile), []byte(strconv.FormatUint(t, 10)+"\n")); err != nil {
		w.err = fmt.Errorf("wal: term write failed, log poisoned (records would carry an unpersisted term): %w", err)
		w.wakeAll()
		return w.err
	}
	w.term = t
	return nil
}

// RecordSkip durably notes that the record at lsn was appended but then
// rejected by the engine and intentionally skipped — the "record the
// gap" half of the skip protocol. Replay (semprox.ReplayWAL) reproduces
// a rejection of a RECORDED LSN as the primary's own skip; a rejection
// of an unrecorded LSN stays a hard error, the guard against replaying
// a log directory that does not belong to the booted snapshot. The note
// is fsynced before RecordSkip returns.
//
// The whole list is rewritten atomically (atomicfile: temp + fsync +
// rename) rather than appended in place: a crash mid-append could leave
// a torn entry with no delimiter, and the next append would concatenate
// onto it ("1" + "20\n" parses as LSN 120) — a wrong LSN recorded as
// skippable while the real one stays a boot-wedging hard error. Skips
// are rare enough that rewriting the tiny file costs nothing.
//
// A RecordSkip failure poisons the log (Err turns non-nil, Append
// refuses, a primary's /readyz flips to wal_failed): the log now holds a
// durable record whose skip is NOT durably recorded, so continuing to
// serve would re-arm the boot-wedging state the skip protocol exists to
// remove — the operator must see it now, not at the next boot.
func (w *WAL) RecordSkip(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.skips[lsn] {
		return nil
	}
	if w.err != nil {
		// Never rewrite the sidecar from a map that may be behind the disk
		// state a partially-failed rewrite left (rename committed, dir
		// sync failed): that could erase a durably recorded skip.
		return w.err
	}
	lsns := make([]uint64, 0, len(w.skips)+1)
	for s := range w.skips {
		lsns = append(lsns, s)
	}
	lsns = append(lsns, lsn)
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	var sb strings.Builder
	for _, s := range lsns {
		fmt.Fprintf(&sb, "%d\n", s)
	}
	if err := atomicfile.Write(filepath.Join(w.dir, skipsFile), []byte(sb.String())); err != nil {
		w.err = fmt.Errorf("wal: skip list write failed, log poisoned (a durable record's skip is not durably recorded): %w", err)
		// Blocked appenders and WaitSince pollers must observe the sticky
		// error now: an appender whose batch the writer has not yet picked
		// up would otherwise wait forever, because the loops' error-exit
		// paths return without another broadcast.
		w.wakeAll()
		return w.err
	}
	if w.skips == nil {
		w.skips = make(map[uint64]bool)
	}
	w.skips[lsn] = true
	return nil
}

// Skipped reports whether lsn is in the durable skip list.
func (w *WAL) Skipped(lsn uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.skips[lsn]
}

// segmentPath names the segment whose first record is lsn.
func (w *WAL) segmentPath(lsn uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("wal-%016x.seg", lsn))
}

// parseSegmentName extracts the first-LSN of a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// recover scans the directory, validates every segment, truncates a torn
// tail, and positions the log for appending. A legacy-format final
// segment is sealed (its torn tail still truncated) and a fresh
// current-format segment opened after it, so new records never extend a
// legacy file.
func (w *WAL) recover() error {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		first, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		w.segments = append(w.segments, segment{path: filepath.Join(w.dir, e.Name()), first: first})
	}
	sort.Slice(w.segments, func(i, j int) bool { return w.segments[i].first < w.segments[j].first })

	// A crash between rotate's segment creation and its first write (or
	// header fsync) can leave a trailing segment shorter than its header.
	// That is a torn creation, not data: drop it and let the previous
	// segment resume as the active one (rotation will simply re-trigger).
	for len(w.segments) > 0 {
		last := w.segments[len(w.segments)-1]
		st, err := os.Stat(last.path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if st.Size() >= int64(headerSize) {
			break
		}
		if err := os.Remove(last.path); err != nil {
			return fmt.Errorf("wal: drop torn segment: %w", err)
		}
		if err := syncDir(w.dir); err != nil {
			return err
		}
		w.segments = w.segments[:len(w.segments)-1]
	}

	if len(w.segments) == 0 {
		return w.openFresh(w.opts.BaseLSN + 1)
	}

	expect := w.segments[0].first
	var prevSegTerm uint64
	for i := range w.segments {
		seg := &w.segments[i]
		if seg.first != expect {
			return fmt.Errorf("wal: segment %s starts at LSN %d, want %d (missing segment?)",
				seg.path, seg.first, expect)
		}
		final := i == len(w.segments)-1
		var firstTerm, segLastTerm uint64
		size, last, err := scanSegment(seg.path, seg.first, !final, func(lsn, term uint64, body []byte) bool {
			if firstTerm == 0 {
				firstTerm = term
			}
			segLastTerm = term
			return true
		})
		if err != nil {
			return err
		}
		// scanSegment enforces term order within one segment; the
		// boundary between segments is checked here.
		if firstTerm > 0 && firstTerm < prevSegTerm {
			return fmt.Errorf("wal: segment %s: first record term %d regresses from %d — mixed log directories?",
				seg.path, firstTerm, prevSegTerm)
		}
		if segLastTerm > prevSegTerm {
			prevSegTerm = segLastTerm
		}
		seg.last = last
		if final {
			// Truncate a torn tail (no-op when the scan consumed the whole
			// file) and reopen the segment for appending.
			f, err := os.OpenFile(seg.path, os.O_RDWR, 0o644)
			if err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			if st, err := f.Stat(); err != nil {
				f.Close()
				return fmt.Errorf("wal: %w", err)
			} else if st.Size() > size {
				if err := f.Truncate(size); err != nil {
					f.Close()
					return fmt.Errorf("wal: truncate torn tail of %s: %w", seg.path, err)
				}
				if err := f.Sync(); err != nil {
					f.Close()
					return fmt.Errorf("wal: %w", err)
				}
			}
			if _, err := f.Seek(size, 0); err != nil {
				f.Close()
				return fmt.Errorf("wal: %w", err)
			}
			w.active = f
			w.activeSize = size
		}
		if last > 0 {
			expect = last + 1
		}
	}
	// expect accumulated to lastRecorded+1 (or stayed at the first
	// segment's declared first when the log holds no records yet): the
	// next append continues exactly where the disk state ends.
	w.next = expect
	w.durable = expect - 1
	w.lastTerm = prevSegTerm

	return nil
}

// openFresh creates the first segment of an empty log.
func (w *WAL) openFresh(first uint64) error {
	f, size, err := createSegment(w.segmentPath(first), first, w.opts.Inject)
	if err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.active = f
	w.activeSize = size
	w.segments = []segment{{path: f.Name(), first: first}}
	w.next = first
	w.durable = first - 1
	return nil
}

// createSegment writes a new segment file with its header, fsynced.
func createSegment(path string, first uint64, inject *faultfs.Injector) (*os.File, int64, error) {
	if err := inject.Check(faultfs.OpCreate); err != nil {
		return nil, 0, fmt.Errorf("wal: create segment: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, segMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, first)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	return f, int64(headerSize), nil
}

// syncDir fsyncs a directory so freshly created/removed names survive a
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Append is AppendAsync followed by WaitDurable: it returns the record's
// LSN once the record is written and fsynced. Concurrent appenders
// share fsyncs: all records that accumulate while one sync is in flight
// commit with the next single sync.
func (w *WAL) Append(d graph.Delta) (uint64, error) {
	lsn, err := w.AppendAsync(d)
	if err == nil {
		err = w.WaitDurable(lsn)
	}
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// encodeRecord validates and encodes one delta for appending. A record
// is only durable if it is also replayable: the decoder enforces bounds
// the encoder does not (per-string size caps), and an acknowledged
// record replay later rejects would make the log permanently
// unreplayable. ValidateDelta checks those bounds before the encode
// pays for an allocation the rejection would waste.
func encodeRecord(d graph.Delta) ([]byte, error) {
	if err := graph.ValidateDelta(d); err != nil {
		return nil, fmt.Errorf("wal: delta would not survive replay: %w", err)
	}
	body := graph.EncodeDelta(d)
	if len(body)+2*binary.MaxVarintLen64 > MaxRecordBytes {
		return nil, fmt.Errorf("wal: delta encodes to %d bytes, limit %d", len(body), MaxRecordBytes)
	}
	return body, nil
}

// AppendAsync sequences d as the next record — assigning its LSN,
// stamping the current term, and handing it to the commit pipeline —
// without waiting for the fsync. The record WILL become durable (or the
// log fail sticky) without further calls; WaitDurable(lsn) is the
// barrier to pass before acknowledging anything that depends on it.
// Decoupling the two lets a caller overlap its own work (applying the
// update in memory) with the disk flush.
func (w *WAL) AppendAsync(d graph.Delta) (uint64, error) {
	body, err := encodeRecord(d)
	if err != nil {
		return 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, fmt.Errorf("wal: closed")
	}
	lsn := w.next
	w.enqueueLocked(lsn, w.term, body)
	walAppends.Inc()
	// Hand the batch to the flusher rather than leading inline: an async
	// appender is a stream, and the records it enqueues while the
	// flusher is writing the previous batch become the next convoy — one
	// fsync for all of them.
	w.cond.Broadcast()
	return lsn, nil
}

// AppendRawBatch appends already-encoded records carrying their own
// LSNs and terms — the follower-local log path, where the primary (not
// this log) assigned both. The batch must continue this log exactly:
// contiguous LSNs from NextLSN, terms non-decreasing from LastTerm. A
// batch term above the current term adopts it durably (sidecar first)
// before any record carries it. One fsync covers the whole batch;
// AppendRawBatch returns once every record is durable.
func (w *WAL) AppendRawBatch(recs []RawRecord) error {
	if len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("wal: closed")
	}
	expect, term := w.next, w.lastTerm
	for _, r := range recs {
		if r.LSN != expect {
			return fmt.Errorf("wal: raw batch LSN %d, want %d", r.LSN, expect)
		}
		if r.Term == 0 {
			return fmt.Errorf("wal: raw batch LSN %d carries no term", r.LSN)
		}
		if r.Term < term {
			return fmt.Errorf("wal: raw batch LSN %d term %d regresses from %d", r.LSN, r.Term, term)
		}
		if len(r.Delta)+2*binary.MaxVarintLen64 > MaxRecordBytes {
			return fmt.Errorf("wal: raw batch LSN %d encodes to %d bytes, limit %d", r.LSN, len(r.Delta), MaxRecordBytes)
		}
		expect, term = r.LSN+1, r.Term
	}
	if term > w.term {
		if err := w.setTermLocked(term); err != nil {
			return err
		}
	}
	for _, r := range recs {
		w.enqueueLocked(r.LSN, r.Term, r.Delta)
	}
	walAppends.Add(uint64(len(recs)))
	if !w.writing {
		w.leadOnceLocked()
	}
	last := recs[len(recs)-1].LSN
	for w.err == nil && w.durable < last {
		w.cond.Wait()
	}
	if w.durable >= last {
		return nil
	}
	return w.err
}

// enqueueLocked frames one record into the pending buffer and the
// in-memory tail, advances the LSN counter, and wakes the writer.
// Caller holds w.mu and has validated lsn == w.next and term ordering.
func (w *WAL) enqueueLocked(lsn, term uint64, body []byte) {
	payload := binary.AppendUvarint(make([]byte, 0, 2*binary.MaxVarintLen64+len(body)), lsn)
	payload = binary.AppendUvarint(payload, term)
	payload = append(payload, body...)
	w.next = lsn + 1
	if len(w.pending) == 0 {
		w.pendingFirst = lsn
	}
	var frame [frameSize]byte
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	w.pending = append(append(w.pending, frame[:]...), payload...)
	w.pendingLast = lsn
	w.lastTerm = term
	w.tail = append(w.tail, tailRec{lsn: lsn, term: term, delta: body})
	w.tailBytes += len(body)
	for len(w.tail) > tailMaxRecords || (w.tailBytes > tailMaxBytes && len(w.tail) > 1) {
		w.tailBytes -= len(w.tail[0].delta)
		w.tail = w.tail[1:]
	}
}

// WaitDurable blocks until the record at lsn is written and fsynced,
// returning nil, or the log fails sticky first, returning why. lsn must
// have been assigned (returned by AppendAsync/Append) — waiting on an
// LSN the log never sequenced is refused rather than left to block
// forever.
func (w *WAL) WaitDurable(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if lsn >= w.next {
		return fmt.Errorf("wal: WaitDurable(%d): LSN not assigned (next is %d)", lsn, w.next)
	}
	for w.err == nil && w.durable < lsn {
		w.cond.Wait()
	}
	if w.durable >= lsn {
		return nil
	}
	return w.err
}

// leadOnceLocked is the first pipeline stage: the calling goroutine
// becomes the commit leader for exactly one batch — drains pending,
// rotates segments at the size threshold, issues the write(), and hands
// the batch to the syncer. It does NOT wait for the fsync: while the
// syncer flushes batch N, the next leader is already writing batch N+1
// and appenders are accumulating N+2, which is what lets one fsync
// commit a whole convoy instead of collapsing to one record per sync
// under lock-step wakeups. AppendRawBatch runs it in the appender
// itself — the follower's single writer is about to park anyway, and
// self-leading saves a handoff; the flusher runs it for everyone else.
// Caller holds w.mu with w.writing false, pending non-empty and
// err nil; returns with w.mu held.
func (w *WAL) leadOnceLocked() {
	w.writing = true
	batch := w.pending
	first, last := w.pendingFirst, w.pendingLast
	w.pending = nil
	rotate := w.activeSize >= w.opts.SegmentBytes
	w.mu.Unlock()

	var failure error
	if rotate {
		failure = w.rotate(first)
	}
	if failure == nil {
		n := len(batch)
		var werr error
		if w.opts.Inject != nil {
			n, werr = w.opts.Inject.CheckWrite(len(batch))
		}
		if n > 0 {
			if _, err := w.active.Write(batch[:n]); err != nil && werr == nil {
				werr = err
			}
		}
		if werr != nil {
			failure = fmt.Errorf("wal: write: %w", werr)
		}
	}
	if failure != nil {
		w.mu.Lock()
		w.writing = false
		if w.err == nil {
			w.err = failure
		}
		w.wakeAll()
		return
	}
	walBatch.Observe(int64(last - first + 1))
	w.mu.Lock()
	w.activeSize += int64(len(batch))
	w.segments[len(w.segments)-1].last = last
	f := w.active
	w.mu.Unlock()
	// Leadership is held across the send: it guarantees sync requests
	// are queued in write order and that no request for a sealed file
	// can land behind a rotation barrier.
	w.syncCh <- syncReq{f: f, last: last}
	w.mu.Lock()
	w.writing = false
	// Wake the flusher (and Close) to pick up records that arrived
	// while this batch was being written.
	w.cond.Broadcast()
}

// flusherLoop is the commit leader for everything AppendAsync (and so
// Append) enqueues, picks up records that arrived while an
// AppendRawBatch caller was leading mid-write, and performs the final
// drain at Close. It parks unless there is pending work and no leader.
func (w *WAL) flusherLoop() {
	defer close(w.flusherDone)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.err != nil || (w.closed && len(w.pending) == 0) {
			return
		}
		if len(w.pending) > 0 && !w.writing {
			w.leadOnceLocked()
			continue
		}
		w.cond.Wait()
	}
}

// syncerLoop is the second pipeline stage: it coalesces every queued
// request into one fsync, advances the durable watermark to the group's
// maximum, and wakes all waiters. Once the log fails sticky it keeps
// draining the queue (closing barriers) but touches the disk no
// further.
func (w *WAL) syncerLoop() {
	defer close(w.syncerDone)
	for {
		req, ok := <-w.syncCh
		if !ok {
			return
		}
		reqs := []syncReq{req}
		chClosed := false
	drain:
		for {
			select {
			case r, ok := <-w.syncCh:
				if !ok {
					chClosed = true
					break drain
				}
				reqs = append(reqs, r)
			default:
				break drain
			}
		}
		w.syncReqs(reqs)
		if chClosed {
			return
		}
	}
}

// syncReqs performs one coalesced fsync. Every request in the group
// references the same file: rotation waits on a barrier request before
// sealing, and leadership is exclusive, so requests for two different
// files can never be queued at once.
func (w *WAL) syncReqs(reqs []syncReq) {
	w.mu.Lock()
	bad := w.err != nil
	w.mu.Unlock()
	if !bad {
		err := w.opts.Inject.Check(faultfs.OpSync)
		if err == nil {
			start := time.Now()
			err = reqs[0].f.Sync()
			walFsync.Since(start)
		}
		w.mu.Lock()
		if err != nil {
			if w.err == nil {
				w.err = fmt.Errorf("wal: fsync: %w", err)
			}
			w.wakeAll()
		} else {
			advanced := false
			for _, r := range reqs {
				if r.last > w.durable {
					w.durable = r.last
					advanced = true
				}
			}
			if advanced {
				w.wakeAll()
			}
		}
		w.mu.Unlock()
	}
	for _, r := range reqs {
		if r.done != nil {
			close(r.done)
		}
	}
}

// wakeAll wakes everything blocked on the log — appenders in cond.Wait
// and WaitSince pollers parked on the watch channel — so they re-examine
// durable/err/closed state. Every state change those waiters observe
// (durability advancing, a sticky failure, close) must go through here:
// a path that mutates state without waking can strand a waiter forever.
// Callers hold w.mu.
func (w *WAL) wakeAll() {
	w.cond.Broadcast()
	close(w.watch)
	w.watch = make(chan struct{})
}

// rotate seals the active segment and opens a fresh one whose first
// record will be firstLSN. Called only from writerLoop. The sync
// barrier — an empty request the syncer acknowledges — drains every
// in-flight fsync of the old file before it is closed: the pipeline
// must not leave the syncer holding a handle the writer is sealing.
func (w *WAL) rotate(firstLSN uint64) error {
	done := make(chan struct{})
	w.syncCh <- syncReq{f: w.active, done: done}
	<-done
	w.mu.Lock()
	err := w.err
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync before rotate: %w", err)
	}
	if err := w.active.Close(); err != nil {
		return fmt.Errorf("wal: close sealed segment: %w", err)
	}
	f, size, err := createSegment(w.segmentPath(firstLSN), firstLSN, w.opts.Inject)
	if err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.mu.Lock()
	w.active = f
	w.activeSize = size
	w.segments = append(w.segments, segment{path: f.Name(), first: firstLSN})
	w.mu.Unlock()
	return nil
}

// Err reports why the log can no longer accept appends: the sticky I/O
// failure from a failed write/fsync (every Append fails until restart),
// or a closed-log error after Close. Nil while the log is healthy.
// Serving layers use it to drop readiness on a write-dead primary.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("wal: closed")
	}
	return nil
}

// DurableLSN returns the highest LSN fsynced to disk (0 for an empty
// log): everything up to and including it survives a crash.
func (w *WAL) DurableLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// NextLSN returns the LSN the next Append will be assigned.
func (w *WAL) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next
}

// FirstLSN returns the lowest LSN still present in the log, or 0 when the
// log holds no records (everything was truncated or nothing was ever
// appended).
func (w *WAL) FirstLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.segments {
		if s.last > 0 {
			return s.first
		}
	}
	return 0
}

// SegmentCount reports how many segment files the log currently spans.
func (w *WAL) SegmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segments)
}

// TruncateThrough deletes every sealed segment whose records are all
// <= lsn — call it after a snapshot at LSN lsn made that prefix
// redundant. The active segment is never deleted.
func (w *WAL) TruncateThrough(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	kept := w.segments[:0]
	removed := false
	for i, s := range w.segments {
		sealed := i < len(w.segments)-1
		// A sealed segment's range is [s.first, next segment's first - 1]
		// even if it holds no records; s.last covers the recorded case.
		end := s.last
		if sealed {
			if n := w.segments[i+1].first; n > 0 {
				end = n - 1
			}
		}
		if sealed && end <= lsn {
			if err := os.Remove(s.path); err != nil {
				w.segments = append(kept, w.segments[i:]...)
				return fmt.Errorf("wal: truncate: %w", err)
			}
			removed = true
			continue
		}
		kept = append(kept, s)
	}
	w.segments = kept
	if removed {
		return syncDir(w.dir)
	}
	return nil
}

// Close flushes every pending append, stops the commit pipeline, and
// closes the active segment. Appends issued after Close fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.cond.Broadcast()
	// Wait out the active leader (it may be mid-send on syncCh) and let
	// the flusher drain what is still pending; on a sticky error the
	// pending records are lost anyway and only the leader matters.
	for w.writing || (w.err == nil && len(w.pending) > 0) {
		w.cond.Wait()
	}
	w.mu.Unlock()
	<-w.flusherDone
	close(w.syncCh)
	<-w.syncerDone
	w.mu.Lock()
	err := w.err
	w.wakeAll() // WaitSince pollers observe closed
	w.mu.Unlock()
	if cerr := w.active.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}
