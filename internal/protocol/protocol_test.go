package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatalf("WriteMessage(%T): %v", m, err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("ReadMessage(%T): %v", m, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%T: %d leftover bytes", m, buf.Len())
	}
	return got
}

func TestRoundTripAllMessages(t *testing.T) {
	hash := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	ep := Endpoint{IP: 0x0A000001, Port: 4662}
	files := []FileEntry{
		{Hash: hash, Size: 1 << 30, Name: "movie.avi", Type: "video", Availability: 12},
		{Size: 42, Name: "song.mp3", Type: "audio"},
	}
	msgs := []Message{
		&LoginRequest{UserHash: hash, Endpoint: ep, Nickname: "abc_1", Version: 60},
		&Reject{Reason: "browsing disabled"},
		&GetServerList{},
		&ServerList{Servers: []Endpoint{ep, {IP: 7, Port: 9}}},
		&OfferFiles{Files: files},
		&SearchRequest{Keyword: "horizon"},
		&SearchResult{Files: files},
		&GetSources{Hash: hash},
		&FoundSources{Hash: hash, Sources: []Endpoint{ep}},
		&SearchUser{Query: "aaa"},
		&SearchUserResult{Users: []UserEntry{
			{Hash: hash, ClientID: 5, Endpoint: ep, Nickname: "aaa_12"},
		}},
		&ServerStatus{Users: 200000, Files: 11000000},
		&IDChange{ClientID: 0x02000007},
		&Hello{UserHash: hash, Endpoint: ep, Nickname: "xyz_9"},
		&HelloAnswer{UserHash: hash, Nickname: "xyz_9"},
		&AskSharedFiles{},
		&SharedFilesAnswer{Files: files},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T round trip:\n got %+v\nwant %+v", m, got, m)
		}
	}
}

func TestRoundTripEmptyCollections(t *testing.T) {
	for _, m := range []Message{
		&OfferFiles{Files: []FileEntry{}},
		&SharedFilesAnswer{Files: []FileEntry{}},
		&ServerList{},
		&FoundSources{},
		&SearchUserResult{Users: []UserEntry{}},
	} {
		got := roundTrip(t, m)
		if got.Opcode() != m.Opcode() {
			t.Errorf("%T opcode mismatch", m)
		}
	}
}

func TestMultipleMessagesOnStream(t *testing.T) {
	var buf bytes.Buffer
	in := []Message{
		&SearchUser{Query: "aaa"},
		&SearchUser{Query: "aab"},
		&GetServerList{},
	}
	for _, m := range in {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range in {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("message %d mismatch", i)
		}
	}
	if _, err := ReadMessage(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF at stream end, got %v", err)
	}
}

func TestBadMarker(t *testing.T) {
	buf := bytes.NewBuffer([]byte{0x00, 1, 0, 0, 0, OpGetServerList})
	if _, err := ReadMessage(buf); !errors.Is(err, ErrBadMarker) {
		t.Errorf("err = %v, want ErrBadMarker", err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(ProtoMarker)
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB frame
	if _, err := ReadMessage(&buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

// TestClaimedFrameSizeBoundedByArrivedBytes sends a frame header that
// claims the largest legal frame and then closes: the read must fail
// without allocating the claimed 16 MiB up front. A scratch already big
// enough for a frame still takes it in one read.
func TestClaimedFrameSizeBoundedByArrivedBytes(t *testing.T) {
	hdr := []byte{ProtoMarker, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[1:], MaxMessageSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadMessageInto(bytes.NewReader(hdr), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame decoded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("5-byte header allocated %d bytes", alloc)
	}

	// A body that arrives in full across several growth steps decodes,
	// and a scratch that already fits the next frame is reused as is.
	big := &SharedFilesAnswer{Files: make([]FileEntry, 20000)}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, big); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 4*readStep {
		t.Fatalf("frame of %d bytes does not span several read steps", buf.Len())
	}
	frame := buf.Bytes()
	m, scratch, err := ReadMessageInto(bytes.NewReader(frame), nil)
	if err != nil || len(m.(*SharedFilesAnswer).Files) != len(big.Files) {
		t.Fatalf("multi-step read: %v", err)
	}
	if _, again, err := ReadMessageInto(bytes.NewReader(frame), scratch); err != nil || &again[0] != &scratch[0] {
		t.Fatalf("fitting scratch not reused (err %v)", err)
	}
}

// TestClaimedCountsBoundedByFrame sends frames of a few bytes whose
// element counts claim far more entries than the frame holds: each must
// fail as truncated without allocating in proportion to the claim (an
// OfferFiles claiming 671k entries used to allocate ~43 MB up front).
func TestClaimedCountsBoundedByFrame(t *testing.T) {
	count := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	var hash [16]byte
	for _, tc := range []struct {
		name string
		body []byte // opcode and payload
	}{
		{"OfferFiles", append([]byte{OpOfferFiles}, count(MaxMessageSize/25)...)},
		{"SearchResult", append([]byte{OpSearchResult}, count(MaxMessageSize/25)...)},
		{"ServerList", append([]byte{OpServerList}, count(MaxMessageSize/6)...)},
		{"FoundSources", append(append([]byte{OpFoundSources}, hash[:]...), count(MaxMessageSize/6)...)},
		{"SearchUserResult", append([]byte{OpSearchUserResult}, count(MaxMessageSize/27)...)},
		{"LoginRequest.tags", append(append([]byte{OpLoginRequest}, make([]byte, 16+6)...), count(MaxMessageSize/6)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := append([]byte{ProtoMarker}, count(uint32(len(tc.body)))...)
			frame = append(frame, tc.body...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadMessage(bytes.NewReader(frame))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("err = %v, want ErrTruncated", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
				t.Fatalf("%d-byte frame allocated %d bytes", len(frame), alloc)
			}
		})
	}
}

func TestUnknownOpcode(t *testing.T) {
	buf := bytes.NewBuffer([]byte{ProtoMarker, 1, 0, 0, 0, 0xEE})
	if _, err := ReadMessage(buf); !errors.Is(err, ErrUnknownOp) {
		t.Errorf("err = %v, want ErrUnknownOp", err)
	}
}

func TestTruncatedPayload(t *testing.T) {
	// A LoginRequest frame cut in the middle of the user hash.
	var full bytes.Buffer
	if err := WriteMessage(&full, &LoginRequest{Nickname: "n"}); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	for cut := 1; cut < len(raw)-1; cut += 3 {
		if _, err := ReadMessage(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("cut at %d decoded successfully", cut)
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(ProtoMarker)
	// GetServerList with one stray byte of payload.
	buf.Write([]byte{2, 0, 0, 0, OpGetServerList, 0xAB})
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// Property: every randomly generated SharedFilesAnswer round trips; the
// decoder must never panic on its own encoder's output.
func TestSharedFilesFuzzRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xBEEF))
		n := rng.IntN(50)
		files := make([]FileEntry, n)
		for i := range files {
			for j := 0; j < 16; j++ {
				files[i].Hash[j] = byte(rng.Uint32())
			}
			files[i].Size = rng.Uint64() % (1 << 40)
			files[i].Name = randString(rng, 40)
			files[i].Type = randString(rng, 10)
			files[i].Availability = rng.Uint32() % 1000
		}
		m := &SharedFilesAnswer{Files: files}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			return false
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func randString(rng *rand.Rand, maxLen int) string {
	n := rng.IntN(maxLen + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(32 + rng.IntN(95))
	}
	return string(b)
}

// Property: the decoder survives arbitrary byte soup without panicking.
func TestDecoderRobustness(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xF00D))
		n := rng.IntN(200)
		raw := make([]byte, n)
		for i := range raw {
			raw[i] = byte(rng.Uint32())
		}
		// Valid-looking header to reach the payload decoders sometimes.
		if n > 6 && rng.IntN(2) == 0 {
			raw[0] = ProtoMarker
			size := uint32(n - 5)
			raw[1] = byte(size)
			raw[2] = byte(size >> 8)
			raw[3] = byte(size >> 16)
			raw[4] = byte(size >> 24)
		}
		_, err := ReadMessage(bytes.NewReader(raw))
		_ = err // any error is fine; panics are not
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTagHelpers(t *testing.T) {
	s := StringTag(TagName, "x")
	if !s.IsString || s.Str != "x" || s.Name != TagName {
		t.Errorf("StringTag = %+v", s)
	}
	u := Uint32Tag(TagSize, 7)
	if u.IsString || u.Num != 7 {
		t.Errorf("Uint32Tag = %+v", u)
	}
}

func BenchmarkWriteSharedFiles100(b *testing.B) {
	files := make([]FileEntry, 100)
	for i := range files {
		files[i] = FileEntry{Size: 1 << 20, Name: "some_file_name.mp3", Type: "audio"}
	}
	m := &SharedFilesAnswer{Files: files}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadSharedFiles100(b *testing.B) {
	files := make([]FileEntry, 100)
	for i := range files {
		files[i] = FileEntry{Size: 1 << 20, Name: "some_file_name.mp3", Type: "audio"}
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &SharedFilesAnswer{Files: files}); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadMessage(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
