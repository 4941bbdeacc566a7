// Package protocol implements an eDonkey-style binary wire protocol: the
// 0xE3-framed messages, the tag system, and the client-server and
// client-client message types the paper's measurement methodology relies
// on — login, shared-file publication, user search by nickname (the
// crawler's discovery primitive), source queries, keyword search, and
// cache browsing (the crawler's collection primitive).
//
// The encoding follows the shape of the original protocol (little-endian
// integers, tagged metadata lists, one opcode byte per message) without
// claiming bit-compatibility with any historical client; the reproduction
// only requires that both ends speak the same language and that the
// measurement artefacts (reply caps, reject semantics) live at the
// protocol layer, where the paper's did.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// ProtoMarker starts every frame, as in eDonkey.
const ProtoMarker = 0xE3

// MaxMessageSize bounds a frame's payload to keep a malicious or broken
// peer from forcing huge allocations.
const MaxMessageSize = 1 << 24

// Message opcodes. Client-server and client-client share the opcode space
// the way the original protocol's TCP messages did.
const (
	OpLoginRequest      = 0x01
	OpReject            = 0x05
	OpGetServerList     = 0x14
	OpOfferFiles        = 0x15
	OpSearchRequest     = 0x16
	OpGetSources        = 0x19
	OpSearchUser        = 0x1A
	OpServerList        = 0x32
	OpSearchResult      = 0x33
	OpServerStatus      = 0x34
	OpSearchUserResult  = 0x43
	OpIDChange          = 0x40
	OpFoundSources      = 0x42
	OpAskSharedFiles    = 0x4A
	OpSharedFilesAnswer = 0x4B
	OpHello             = 0x4C
	OpHelloAnswer       = 0x4D
)

// Common tag names (eDonkey special tags).
const (
	TagName         = 0x01
	TagSize         = 0x02
	TagType         = 0x03
	TagFormat       = 0x04
	TagVersion      = 0x11
	TagPort         = 0x0F
	TagNickname     = 0x01 // same id in a user context
	TagAvailability = 0x15
)

// Tag value kinds.
const (
	tagKindString = 0x02
	tagKindUint32 = 0x03
)

// tagMinSize is the smallest encoded tag: kind, name and an empty string.
const tagMinSize = 2 + 2

// Errors returned by the codec.
var (
	ErrBadMarker  = errors.New("protocol: bad frame marker")
	ErrTooLarge   = errors.New("protocol: frame exceeds maximum size")
	ErrTruncated  = errors.New("protocol: truncated message")
	ErrUnknownOp  = errors.New("protocol: unknown opcode")
	errBadTagKind = errors.New("protocol: unknown tag kind")
	errStringSize = errors.New("protocol: unreasonable string length")
)

// Tag is one piece of typed, named metadata.
type Tag struct {
	Name     byte
	IsString bool
	Str      string
	Num      uint32
}

// StringTag builds a string-valued tag.
func StringTag(name byte, v string) Tag { return Tag{Name: name, IsString: true, Str: v} }

// Uint32Tag builds an integer-valued tag.
func Uint32Tag(name byte, v uint32) Tag { return Tag{Name: name, Num: v} }

func appendTag(dst []byte, t Tag) []byte {
	if t.IsString {
		dst = append(dst, tagKindString, t.Name)
		return appendString(dst, t.Str)
	}
	dst = append(dst, tagKindUint32, t.Name)
	return binary.LittleEndian.AppendUint32(dst, t.Num)
}

func readTag(r *reader) (Tag, error) {
	kind, err := r.byte()
	if err != nil {
		return Tag{}, err
	}
	name, err := r.byte()
	if err != nil {
		return Tag{}, err
	}
	switch kind {
	case tagKindString:
		s, err := r.string()
		if err != nil {
			return Tag{}, err
		}
		return Tag{Name: name, IsString: true, Str: s}, nil
	case tagKindUint32:
		v, err := r.uint32()
		if err != nil {
			return Tag{}, err
		}
		return Tag{Name: name, Num: v}, nil
	default:
		return Tag{}, errBadTagKind
	}
}

func appendTags(dst []byte, tags []Tag) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tags)))
	for _, t := range tags {
		dst = appendTag(dst, t)
	}
	return dst
}

func readTags(r *reader) ([]Tag, error) {
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if err := r.fits(n, tagMinSize); err != nil {
		return nil, err
	}
	tags := make([]Tag, 0, n)
	for i := uint32(0); i < n; i++ {
		t, err := readTag(r)
		if err != nil {
			return nil, err
		}
		tags = append(tags, t)
	}
	return tags, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// reader wraps a payload with bounds-checked primitives.
type reader struct {
	buf []byte
	off int
}

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, ErrTruncated
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) uint16() (uint16, error) {
	if r.off+2 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) uint32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) uint64() (uint64, error) {
	if r.off+8 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) hash() ([16]byte, error) {
	var h [16]byte
	if r.off+16 > len(r.buf) {
		return h, ErrTruncated
	}
	copy(h[:], r.buf[r.off:])
	r.off += 16
	return h, nil
}

func (r *reader) string() (string, error) {
	n, err := r.uint16()
	if err != nil {
		return "", err
	}
	if int(n) > len(r.buf)-r.off {
		return "", errStringSize
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// fits checks that n elements of at least minSize bytes each can still
// be in the payload, so a decoder sizes its slice by the bytes that
// actually arrived, never by a count the peer merely claims.
func (r *reader) fits(n uint32, minSize int) error {
	if uint64(n)*uint64(minSize) > uint64(len(r.buf)-r.off) {
		return ErrTruncated
	}
	return nil
}

func (r *reader) done() error {
	if r.off != len(r.buf) {
		return fmt.Errorf("protocol: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// Message is any frame body that knows its opcode and payload encoding.
type Message interface {
	Opcode() byte
	// appendPayload appends the encoded payload (without the frame
	// header or opcode) to dst and returns the extended slice. Append
	// style lets callers frame straight into reused buffers; WriteMessage
	// and AppendMessage are the public entry points.
	appendPayload(dst []byte) []byte
}

// frameHeaderSize is the marker byte plus the little-endian payload size.
const frameHeaderSize = 5

// AppendMessage appends the complete frame (marker, size, opcode,
// payload) for m to dst and returns the extended slice. On ErrTooLarge
// dst is returned unchanged. The bytes are identical to what
// WriteMessage puts on the wire.
func AppendMessage(dst []byte, m Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, ProtoMarker, 0, 0, 0, 0, m.Opcode())
	return endFrame(m.appendPayload(dst), start)
}

// endFrame patches the payload size of the frame that begins at start.
// A payload over MaxMessageSize is cut off again: dst comes back
// truncated to start, with ErrTooLarge.
func endFrame(dst []byte, start int) ([]byte, error) {
	size := len(dst) - start - frameHeaderSize
	if size > MaxMessageSize {
		return dst[:start], ErrTooLarge
	}
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(size))
	return dst, nil
}

// framePool recycles encode buffers across WriteMessage calls: the
// serving hot path frames thousands of small replies per second and
// must not allocate a fresh buffer for each.
var framePool = sync.Pool{New: func() any { return make([]byte, 0, 512) }}

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, m Message) error {
	buf := framePool.Get().([]byte)
	frame, err := AppendMessage(buf[:0], m)
	if err != nil {
		framePool.Put(buf)
		return err
	}
	_, err = w.Write(frame)
	framePool.Put(frame[:0])
	return err
}

// ReadMessage reads and decodes one frame.
func ReadMessage(r io.Reader) (Message, error) {
	m, _, err := ReadMessageInto(r, nil)
	return m, err
}

// readStep is the first growth step of a body read that outgrows the
// scratch; later steps double with the bytes already received.
const readStep = 64 << 10

// readBody reads a size-byte frame body into scratch. A scratch big
// enough takes one ReadFull; otherwise the buffer grows only as bytes
// arrive, so a header that claims a huge frame and then stalls or
// closes costs one step, not the claimed size.
func readBody(r io.Reader, scratch []byte, size int) ([]byte, error) {
	if cap(scratch) >= size {
		body := scratch[:size]
		_, err := io.ReadFull(r, body)
		return body, err
	}
	body := scratch[:0]
	for len(body) < size {
		n := min(size-len(body), max(readStep, len(body)))
		body = slices.Grow(body, n)
		k, err := io.ReadFull(r, body[len(body):len(body)+n])
		body = body[:len(body)+k]
		if err != nil {
			return body, err
		}
	}
	return body, nil
}

// ReadMessageInto reads and decodes one frame using scratch as the
// reusable body buffer, returning the (possibly grown) scratch for the
// next call. Decoded messages never alias the scratch — strings and
// hashes are copied by the decoders — so one buffer per connection
// serves the whole session without a per-frame allocation.
func ReadMessageInto(r io.Reader, scratch []byte) (Message, []byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, scratch, err
	}
	if hdr[0] != ProtoMarker {
		return nil, scratch, ErrBadMarker
	}
	size := binary.LittleEndian.Uint32(hdr[1:])
	if size == 0 {
		return nil, scratch, ErrTruncated
	}
	if size > MaxMessageSize {
		return nil, scratch, ErrTooLarge
	}
	body, err := readBody(r, scratch, int(size))
	scratch = body
	if err != nil {
		return nil, scratch, err
	}
	op := body[0]
	rd := &reader{buf: body[1:]}
	decode, ok := decoders[op]
	if !ok {
		return nil, scratch, fmt.Errorf("%w: 0x%02X", ErrUnknownOp, op)
	}
	m, err := decode(rd)
	if err != nil {
		return nil, scratch, err
	}
	if err := rd.done(); err != nil {
		return nil, scratch, err
	}
	return m, scratch, nil
}

var decoders = map[byte]func(*reader) (Message, error){
	OpLoginRequest:      decodeLoginRequest,
	OpReject:            decodeReject,
	OpGetServerList:     decodeGetServerList,
	OpOfferFiles:        decodeOfferFiles,
	OpSearchRequest:     decodeSearchRequest,
	OpGetSources:        decodeGetSources,
	OpSearchUser:        decodeSearchUser,
	OpServerList:        decodeServerList,
	OpSearchResult:      decodeSearchResult,
	OpServerStatus:      decodeServerStatus,
	OpSearchUserResult:  decodeSearchUserResult,
	OpIDChange:          decodeIDChange,
	OpFoundSources:      decodeFoundSources,
	OpAskSharedFiles:    decodeAskSharedFiles,
	OpSharedFilesAnswer: decodeSharedFilesAnswer,
	OpHello:             decodeHello,
	OpHelloAnswer:       decodeHelloAnswer,
}
