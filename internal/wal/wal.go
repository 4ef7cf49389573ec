// Package wal is the durability substrate of the live-update path: a
// write-ahead log of graph.Delta records. A primary appends every update
// its engine has accepted, and only those (engine.Engine.ApplyRecords
// calls the append hook after the epoch is built), and acks it only once
// it is fsynced here, so a crash loses nothing acked: recovery loads the
// newest snapshot and replays the log tail (engine.ReplayWAL), and a
// follower replica streams the same records over HTTP (internal/replica)
// to stay byte-identical with the primary.
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
// new term.
//
// Durability: group commit in the waiter. AppendAsync only sequences a
// record; it reaches the disk when a caller waits on it (WaitDurable,
// AppendRawBatch) or at Close. The first waiter that finds no
// commit in flight leads one: it takes every pending record, writes them
// and fsyncs once, and everyone whose record was in the batch wakes
// durable. Records sequenced while that commit is on the disk wait for
// it to finish, then the next waiter commits them all with one more
// fsync (DeWitt et al., SIGMOD 1984). Splitting sequencing from the
// barrier lets a server apply an update to its in-memory state before
// the fsync and only delay the client's ack — never visibility
// ordering — on the disk. A torn tail write (crash mid-record) is
// detected by length/CRC at Open and truncated away; corruption in any
// sealed (non-final) segment is an error, never silently skipped.
// Options.Inject mounts a fault-injection schedule (internal/faultfs) on
// every write/fsync/create path so tests prove those claims with real
// injected failures.
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

// WAL is an append-only log of deltas. All methods are safe for
// concurrent use.
type WAL struct {
	dir  string
	opts Options

	mu   sync.Mutex
	cond *sync.Cond // signals committing/durable/err/closed transitions

	// pending holds encoded frames no commit has taken yet;
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

	// committing marks a commit on the disk: one waiter has taken pending
	// and is writing and fsyncing it with w.mu released. Only that
	// goroutine writes, fsyncs or rotates the active segment until it
	// clears the flag, so its I/O needs no lock and rotation no barrier.
	committing bool
}

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
	w := &WAL{dir: dir, opts: opts, watch: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	if err := w.recover(); err != nil {
		return nil, err
	}
	if err := w.loadTerm(); err != nil {
		return nil, err
	}
	w.registerGauges()
	return w, nil
}

// loadTerm restores the current term from its sidecar. A missing file —
// a fresh log, or one whose term was never raised — starts at the term
// of the newest record (1 when the log is empty). A sidecar BEHIND the
// newest record's term breaks the write-sidecar-first invariant and can
// only mean mispaired files, so it is an error, not something to repair
// silently.
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
// tail, and positions the log for appending. A segment with any magic
// but segMagic fails the scan, so Open refuses it by name.
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
// stamping the current term, and framing it into the pending batch —
// without touching the disk. It is the first half of the one way a
// delta is appended; WaitDurable(lsn) is the second, the barrier to pass
// before acknowledging anything that depends on the record. The record
// becomes durable only when some caller waits on it or a later LSN
// (WaitDurable, AppendRawBatch) or at Close. Decoupling the two lets a
// caller do its own work (applying the update in memory) between
// sequencing and the disk flush, and lets concurrent appenders share
// fsyncs: every record sequenced while one commit is on the disk commits
// with the next single fsync.
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
	return w.waitLocked(recs[len(recs)-1].LSN)
}

// enqueueLocked frames one record into the pending buffer and the
// in-memory tail and advances the LSN counter. Caller holds w.mu and
// has validated lsn == w.next and term ordering.
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
// returning nil, or the log fails sticky first, returning why. If no
// commit is on the disk, the caller leads one for every pending record
// (waitLocked). lsn must have been assigned (returned by AppendAsync) —
// waiting on an LSN the log never sequenced is refused rather than left
// to block forever.
func (w *WAL) WaitDurable(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if lsn >= w.next {
		return fmt.Errorf("wal: WaitDurable(%d): LSN not assigned (next is %d)", lsn, w.next)
	}
	return w.waitLocked(lsn)
}

// waitLocked is group commit in the waiter: until lsn is durable or the
// log fails, the caller either leads a commit (none is on the disk) or
// waits for the one that is. Every assigned LSN above durable is in
// pending or in the commit on the disk, so a caller that finds no
// commit running always has records to commit. Caller holds w.mu and
// lsn < w.next; returns with w.mu held.
func (w *WAL) waitLocked(lsn uint64) error {
	for w.err == nil && w.durable < lsn {
		if w.committing {
			w.cond.Wait()
			continue
		}
		w.commitLocked()
	}
	if w.durable >= lsn {
		return nil
	}
	return w.err
}

// commitLocked takes every pending record and, with w.mu released,
// rotates at the size threshold, writes the batch and fsyncs it once;
// then it advances durable, or sets the sticky error, and wakes
// everyone. Records sequenced while it is on the disk stay in pending
// for the next waiter, so one fsync covers each convoy. Caller holds
// w.mu with committing false, pending non-empty and err nil; returns
// with w.mu held.
func (w *WAL) commitLocked() {
	w.committing = true
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
	if failure == nil {
		err := w.opts.Inject.Check(faultfs.OpSync)
		if err == nil {
			start := time.Now()
			err = w.active.Sync()
			walFsync.Since(start)
		}
		if err != nil {
			failure = fmt.Errorf("wal: fsync: %w", err)
		}
	}

	w.mu.Lock()
	w.committing = false
	if failure != nil {
		if w.err == nil {
			w.err = failure
		}
	} else {
		walBatch.Observe(int64(last - first + 1))
		w.activeSize += int64(len(batch))
		w.segments[len(w.segments)-1].last = last
		w.durable = last
	}
	w.wakeAll()
}

// wakeAll wakes everything blocked on the log — waiters in cond.Wait
// and WaitSince pollers parked on the watch channel — so they re-examine
// durable/err/closed/committing state. Every state change those waiters
// observe (a commit ending, a sticky failure, close) must go through
// here: a path that mutates state without waking can strand a waiter
// forever. Callers hold w.mu.
func (w *WAL) wakeAll() {
	w.cond.Broadcast()
	close(w.watch)
	w.watch = make(chan struct{})
}

// rotate seals the active segment and opens a fresh one whose first
// record will be firstLSN. Called only from commitLocked, by the
// goroutine leading the commit, so no other goroutine holds the sealed
// file.
func (w *WAL) rotate(firstLSN uint64) error {
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

// Close commits every record still pending — durable even if nobody
// waited on it — then closes the active segment. Appends issued after
// Close fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.waitLocked(w.next - 1)
	// A sticky error set outside a commit (SetTerm) ends the wait while
	// another waiter's commit may still be on the disk: let it finish
	// before its file is closed.
	for w.committing {
		w.cond.Wait()
	}
	err := w.err
	w.wakeAll() // WaitSince pollers observe closed
	w.mu.Unlock()
	if cerr := w.active.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}
