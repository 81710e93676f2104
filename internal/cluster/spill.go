package cluster

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// SpillCodec serializes block payloads for the disk-backed spill store. The
// block and shuffle services store `any`, so they cannot pick an encoding
// themselves; the typed layer that produced the data (internal/rdd, or a
// raw-cluster caller) registers a codec that knows the concrete type. Blocks
// without a codec are never spilled: the block cache falls back to plain
// eviction (lineage recompute on next read) and the shuffle service keeps the
// block resident.
//
// Decode(Encode(v)) must reproduce v's observable value exactly — spilling is
// a storage decision and must never change job output.
type SpillCodec interface {
	Encode(v any) ([]byte, error)
	Decode(b []byte) (any, error)
}

// codecFuncs adapts a pair of functions to SpillCodec.
type codecFuncs struct {
	encode func(v any) ([]byte, error)
	decode func(b []byte) (any, error)
}

func (c codecFuncs) Encode(v any) ([]byte, error) { return c.encode(v) }
func (c codecFuncs) Decode(b []byte) (any, error) { return c.decode(b) }

// GobCodec builds a SpillCodec for blocks whose dynamic type is exactly T,
// using encoding/gob. Note the usual gob caveat: an empty slice may decode as
// nil — both compare equal element-wise, which is the contract the engine's
// partition comparisons rely on, but callers using reflect.DeepEqual on
// spilled partitions should normalize first.
func GobCodec[T any]() SpillCodec {
	return codecFuncs{
		encode: func(v any) ([]byte, error) {
			t, ok := v.(T)
			if !ok {
				return nil, fmt.Errorf("cluster: gob spill codec: block is %T, not %T", v, t)
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&t); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		decode: func(b []byte) (v any, err error) {
			// gob decoding of corrupt input can panic; a spill read-back
			// must degrade to an error, not crash the task.
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("cluster: gob spill codec: decode panicked: %v", r)
				}
			}()
			var t T
			if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&t); err != nil {
				return nil, err
			}
			return t, nil
		},
	}
}

// Spill frame format: every spilled block is wrapped in a self-describing,
// integrity-checked frame before hitting disk:
//
//	magic "ASPL" (4) | version (1) | crc32(raw payload) (4, LE) |
//	raw payload length (uvarint) | DEFLATE-compressed payload
//
// The CRC is over the *uncompressed* payload, so corruption introduced at any
// layer (disk, compression, truncation) is caught before a corrupt block can
// reach a task. decodeSpillFrame never panics on arbitrary input — it is the
// FuzzSpillCodec target.
var spillMagic = [4]byte{'A', 'S', 'P', 'L'}

const spillFrameVersion = 1

// maxSpillFrameRaw bounds the declared payload length a frame may claim, so
// a corrupt length field cannot drive a giant allocation during decode.
const maxSpillFrameRaw = int64(1) << 33 // 8 GiB

// ErrSpillCorrupt is the sentinel under every spill-frame decode failure.
var ErrSpillCorrupt = errors.New("cluster: corrupt spill frame")

// encodeSpillFrame wraps a raw payload in the spill frame format.
func encodeSpillFrame(raw []byte) []byte {
	var buf bytes.Buffer
	buf.Write(spillMagic[:])
	buf.WriteByte(spillFrameVersion)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(raw))
	buf.Write(crc[:])
	var lenBuf [binary.MaxVarintLen64]byte
	buf.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(raw)))])
	// flate.NewWriter only errors for invalid levels; BestSpeed is valid.
	zw, _ := flate.NewWriter(&buf, flate.BestSpeed)
	zw.Write(raw) //nolint:errcheck // bytes.Buffer writes cannot fail
	zw.Close()    //nolint:errcheck
	return buf.Bytes()
}

// decodeSpillFrame unwraps and verifies a spill frame, returning the raw
// payload. Corrupt or truncated frames yield an error wrapping
// ErrSpillCorrupt; no input panics.
func decodeSpillFrame(frame []byte) ([]byte, error) {
	r := bytes.NewReader(frame)
	var head [9]byte // magic + version + crc
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("%w: short header", ErrSpillCorrupt)
	}
	if !bytes.Equal(head[:4], spillMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSpillCorrupt, head[:4])
	}
	if head[4] != spillFrameVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrSpillCorrupt, head[4])
	}
	wantCRC := binary.LittleEndian.Uint32(head[5:9])
	rawLen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: bad length varint", ErrSpillCorrupt)
	}
	if int64(rawLen) < 0 || int64(rawLen) > maxSpillFrameRaw {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrSpillCorrupt, rawLen)
	}
	// Read at most rawLen+1 decompressed bytes: one extra detects frames
	// whose payload is longer than declared without decompressing further.
	zr := flate.NewReader(r)
	defer zr.Close()
	raw := make([]byte, 0, rawLen)
	got, err := io.ReadAll(io.LimitReader(zr, int64(rawLen)+1))
	if err != nil {
		return nil, fmt.Errorf("%w: decompress: %v", ErrSpillCorrupt, err)
	}
	raw = append(raw, got...)
	if uint64(len(raw)) != rawLen {
		return nil, fmt.Errorf("%w: payload length %d, frame declares %d",
			ErrSpillCorrupt, len(raw), rawLen)
	}
	if crc32.ChecksumIEEE(raw) != wantCRC {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrSpillCorrupt)
	}
	return raw, nil
}

// SpillRef is a handle to one block persisted in the spill store.
type SpillRef struct {
	id int
	// diskBytes is the framed and compressed size actually written (the
	// basis for virtual disk time).
	diskBytes int64
	// executor is the host whose local disk holds the file; like Spark
	// shuffle files, spilled blocks die with their executor.
	executor int
}

// SpillStore is the cluster's disk-backed overflow tier: blocks that no
// longer fit an executor's memory budget are framed (encodeSpillFrame),
// compressed, and written to per-cluster temporary files. Reads verify the
// frame and charge virtual disk time at spillMBps — the disk analogue of
// networkMBps. Files model executor-local disk: InvalidateExecutor on the
// owning service must free the dead host's spills.
type SpillStore struct {
	cluster *Cluster

	mu     sync.Mutex
	dir    string
	nextID int
	live   map[int]string // spill id -> file path
}

func newSpillStore(c *Cluster) *SpillStore {
	return &SpillStore{cluster: c, live: make(map[int]string)}
}

// dirLocked lazily creates the store's temp directory. Callers hold s.mu.
func (s *SpillStore) dirLocked() (string, error) {
	if s.dir != "" {
		return s.dir, nil
	}
	dir, err := os.MkdirTemp("", "adrdedup-spill-")
	if err != nil {
		return "", fmt.Errorf("cluster: creating spill dir: %w", err)
	}
	s.dir = dir
	return dir, nil
}

// Put frames, compresses, and persists one encoded payload, returning its
// ref. The caller decides attribution: executor is recorded on the ref so
// executor loss can free its local spills. Virtual disk-write time is charged
// to the cluster clock by the caller via SpillWriteNS (spills happen on the
// commit path, outside any single attempt's accounting).
func (s *SpillStore) Put(raw []byte, executor int) (SpillRef, error) {
	frame := encodeSpillFrame(raw)
	s.mu.Lock()
	defer s.mu.Unlock()
	dir, err := s.dirLocked()
	if err != nil {
		return SpillRef{}, err
	}
	s.nextID++
	id := s.nextID
	path := filepath.Join(dir, fmt.Sprintf("spill-%d.blk", id))
	if err := os.WriteFile(path, frame, 0o600); err != nil {
		return SpillRef{}, fmt.Errorf("cluster: writing spill block: %w", err)
	}
	s.live[id] = path
	return SpillRef{id: id, diskBytes: int64(len(frame)), executor: executor}, nil
}

// Get reads back and verifies one spilled payload.
func (s *SpillStore) Get(ref SpillRef) ([]byte, error) {
	s.mu.Lock()
	path, ok := s.live[ref.id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cluster: spill block %d already freed", ref.id)
	}
	frame, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading spill block %d: %w", ref.id, err)
	}
	raw, err := decodeSpillFrame(frame)
	if err != nil {
		return nil, fmt.Errorf("cluster: spill block %d: %w", ref.id, err)
	}
	return raw, nil
}

// Free deletes one spilled block's file.
func (s *SpillStore) Free(ref SpillRef) {
	s.mu.Lock()
	path, ok := s.live[ref.id]
	delete(s.live, ref.id)
	s.mu.Unlock()
	if ok {
		os.Remove(path) //nolint:errcheck // best-effort temp cleanup
	}
}

// Close removes every spilled file and the store's directory. The owning
// cluster calls it from Cluster.Close.
func (s *SpillStore) Close() {
	s.mu.Lock()
	dir := s.dir
	s.dir = ""
	s.live = make(map[int]string)
	s.mu.Unlock()
	if dir != "" {
		os.RemoveAll(dir) //nolint:errcheck
	}
}

// Spill exposes the cluster's spill store to the RDD layer (an over-budget
// join's build-side chunks go through the same framed, compressed,
// virtually-charged tier the block and shuffle services use).
func (c *Cluster) Spill() *SpillStore { return c.spill }

// SpillIONS returns the virtual disk time for moving n on-disk bytes through
// the spill tier at spillMBps, the disk analogue of the network charge in
// FetchShuffle.
func (c *Cluster) SpillIONS(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / (spillMBps * 1e6) * 1e9
}

// recordSpill accounts one spill write: counters, trace, and virtual disk
// time on the cluster clock. detail names the spilled subject.
func (c *Cluster) recordSpill(ref SpillRef, detail string) {
	ns := c.AccountSpillWrite(ref, detail)
	c.mu.Lock()
	c.virtualNS += ns
	c.mu.Unlock()
}

// AccountSpillWrite records one spill write in the counters and the trace and
// returns its virtual disk time for the caller to charge — task-side spillers
// (the RDD layer's over-budget join) add it to their own attempt; commit-path
// spillers put it on the cluster clock. detail names the spilled subject.
func (c *Cluster) AccountSpillWrite(ref SpillRef, detail string) float64 {
	c.metrics.SpillEvents.Add(1)
	c.metrics.SpilledBytes.Add(ref.diskBytes)
	ns := c.SpillIONS(ref.diskBytes)
	if c.tracer.Enabled() {
		c.tracer.Emit(Event{Kind: EventSpill, Task: -1, Attempt: -1, Executor: ref.executor,
			Bytes: ref.diskBytes, VirtualNS: ns, Detail: detail})
	}
	return ns
}

// AccountSpillRead records one spill read-back in the trace and returns its
// virtual disk time for the reader to charge to its attempt. detail names the
// read-back subject.
func (c *Cluster) AccountSpillRead(ref SpillRef, detail string) float64 {
	ns := c.SpillIONS(ref.diskBytes)
	if c.tracer.Enabled() {
		c.tracer.Emit(Event{Kind: EventSpillLoad, Task: -1, Attempt: -1, Executor: ref.executor,
			Bytes: ref.diskBytes, VirtualNS: ns, Detail: detail})
	}
	return ns
}
