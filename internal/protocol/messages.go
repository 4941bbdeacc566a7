package protocol

import (
	"encoding/binary"
)

// Endpoint identifies a reachable peer.
type Endpoint struct {
	IP   uint32
	Port uint16
}

// endpointSize is an encoded Endpoint's length: IP and port.
const endpointSize = 4 + 2

func appendEndpoint(dst []byte, e Endpoint) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, e.IP)
	return binary.LittleEndian.AppendUint16(dst, e.Port)
}

func readEndpoint(r *reader) (Endpoint, error) {
	ip, err := r.uint32()
	if err != nil {
		return Endpoint{}, err
	}
	port, err := r.uint16()
	if err != nil {
		return Endpoint{}, err
	}
	return Endpoint{IP: ip, Port: port}, nil
}

// FileEntry describes one shared file in publications, browse answers and
// search results.
type FileEntry struct {
	Hash [16]byte
	Size uint64
	Name string
	Type string
	// Availability is the source count a server reports in results.
	Availability uint32
}

// fileEntryMinSize is the smallest encoded FileEntry: hash, size and an
// empty tag list.
const fileEntryMinSize = 16 + 8 + 4

// AppendFileEntry appends the wire encoding of one file entry (as it
// appears in publications, browse answers and search results) to dst.
// It is the one entry encoder: directories that pre-encode their
// catalogue call it too, so a pre-encoded reply stays byte-identical to
// one rendered from FileEntry values.
func AppendFileEntry(dst []byte, f FileEntry) []byte {
	dst = append(dst, f.Hash[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, f.Size)
	dst = binary.LittleEndian.AppendUint32(dst, 3) // tag count
	dst = appendTag(dst, StringTag(TagName, f.Name))
	dst = appendTag(dst, StringTag(TagType, f.Type))
	return appendTag(dst, Uint32Tag(TagAvailability, f.Availability))
}

func readFileEntry(r *reader) (FileEntry, error) {
	var f FileEntry
	h, err := r.hash()
	if err != nil {
		return f, err
	}
	f.Hash = h
	if f.Size, err = r.uint64(); err != nil {
		return f, err
	}
	tags, err := readTags(r)
	if err != nil {
		return f, err
	}
	for _, t := range tags {
		switch {
		case t.Name == TagName && t.IsString:
			f.Name = t.Str
		case t.Name == TagType && t.IsString:
			f.Type = t.Str
		case t.Name == TagAvailability && !t.IsString:
			f.Availability = t.Num
		}
	}
	return f, nil
}

func appendFileEntries(dst []byte, files []FileEntry) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(files)))
	for _, f := range files {
		dst = AppendFileEntry(dst, f)
	}
	return dst
}

func readFileEntries(r *reader) ([]FileEntry, error) {
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if err := r.fits(n, fileEntryMinSize); err != nil {
		return nil, err
	}
	files := make([]FileEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		f, err := readFileEntry(r)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// UserEntry describes one client in a user-search reply.
type UserEntry struct {
	Hash     [16]byte
	ClientID uint32 // high IDs are directly reachable, low IDs firewalled
	Endpoint Endpoint
	Nickname string
}

// userEntryMinSize is the smallest encoded UserEntry: hash, client ID,
// endpoint and an empty nickname.
const userEntryMinSize = 16 + 4 + endpointSize + 2

func appendUserEntry(dst []byte, u UserEntry) []byte {
	dst = append(dst, u.Hash[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, u.ClientID)
	dst = appendEndpoint(dst, u.Endpoint)
	return appendString(dst, u.Nickname)
}

// LoginRequest is sent by a client right after connecting to a server.
type LoginRequest struct {
	UserHash [16]byte
	Endpoint Endpoint
	Nickname string
	Version  uint32
}

func (*LoginRequest) Opcode() byte { return OpLoginRequest }

func (m *LoginRequest) appendPayload(dst []byte) []byte {
	dst = append(dst, m.UserHash[:]...)
	dst = appendEndpoint(dst, m.Endpoint)
	dst = binary.LittleEndian.AppendUint32(dst, 2) // tag count
	dst = appendTag(dst, StringTag(TagNickname, m.Nickname))
	return appendTag(dst, Uint32Tag(TagVersion, m.Version))
}

func decodeLoginRequest(r *reader) (Message, error) {
	var m LoginRequest
	var err error
	if m.UserHash, err = r.hash(); err != nil {
		return nil, err
	}
	if m.Endpoint, err = readEndpoint(r); err != nil {
		return nil, err
	}
	tags, err := readTags(r)
	if err != nil {
		return nil, err
	}
	for _, t := range tags {
		switch {
		case t.Name == TagNickname && t.IsString:
			m.Nickname = t.Str
		case t.Name == TagVersion && !t.IsString:
			m.Version = t.Num
		}
	}
	return &m, nil
}

// Reject answers a request the peer refuses (e.g. browsing disabled).
type Reject struct{ Reason string }

func (*Reject) Opcode() byte { return OpReject }

func (m *Reject) appendPayload(dst []byte) []byte { return appendString(dst, m.Reason) }

func decodeReject(r *reader) (Message, error) {
	s, err := r.string()
	if err != nil {
		return nil, err
	}
	return &Reject{Reason: s}, nil
}

// GetServerList asks a server for the other servers it knows — the only
// data eDonkey servers exchanged.
type GetServerList struct{}

func (*GetServerList) Opcode() byte { return OpGetServerList }

func (*GetServerList) appendPayload(dst []byte) []byte { return dst }

func decodeGetServerList(*reader) (Message, error) { return &GetServerList{}, nil }

// ServerList carries known server endpoints.
type ServerList struct{ Servers []Endpoint }

func (*ServerList) Opcode() byte { return OpServerList }

func (m *ServerList) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Servers)))
	for _, s := range m.Servers {
		dst = appendEndpoint(dst, s)
	}
	return dst
}

func decodeServerList(r *reader) (Message, error) {
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if err := r.fits(n, endpointSize); err != nil {
		return nil, err
	}
	m := &ServerList{Servers: make([]Endpoint, 0, n)}
	for i := uint32(0); i < n; i++ {
		e, err := readEndpoint(r)
		if err != nil {
			return nil, err
		}
		m.Servers = append(m.Servers, e)
	}
	return m, nil
}

// OfferFiles publishes the client's cache contents to its server.
type OfferFiles struct{ Files []FileEntry }

func (*OfferFiles) Opcode() byte { return OpOfferFiles }

func (m *OfferFiles) appendPayload(dst []byte) []byte { return appendFileEntries(dst, m.Files) }

func decodeOfferFiles(r *reader) (Message, error) {
	files, err := readFileEntries(r)
	if err != nil {
		return nil, err
	}
	return &OfferFiles{Files: files}, nil
}

// SearchRequest is a (simplified single-keyword) file search.
type SearchRequest struct{ Keyword string }

func (*SearchRequest) Opcode() byte { return OpSearchRequest }

func (m *SearchRequest) appendPayload(dst []byte) []byte { return appendString(dst, m.Keyword) }

func decodeSearchRequest(r *reader) (Message, error) {
	s, err := r.string()
	if err != nil {
		return nil, err
	}
	return &SearchRequest{Keyword: s}, nil
}

// SearchResult carries matching files.
type SearchResult struct{ Files []FileEntry }

func (*SearchResult) Opcode() byte { return OpSearchResult }

func (m *SearchResult) appendPayload(dst []byte) []byte { return appendFileEntries(dst, m.Files) }

func decodeSearchResult(r *reader) (Message, error) {
	files, err := readFileEntries(r)
	if err != nil {
		return nil, err
	}
	return &SearchResult{Files: files}, nil
}

// GetSources asks the server for sources of a file.
type GetSources struct{ Hash [16]byte }

func (*GetSources) Opcode() byte { return OpGetSources }

func (m *GetSources) appendPayload(dst []byte) []byte { return append(dst, m.Hash[:]...) }

func decodeGetSources(r *reader) (Message, error) {
	h, err := r.hash()
	if err != nil {
		return nil, err
	}
	return &GetSources{Hash: h}, nil
}

// FoundSources answers GetSources.
type FoundSources struct {
	Hash    [16]byte
	Sources []Endpoint
}

func (*FoundSources) Opcode() byte { return OpFoundSources }

func (m *FoundSources) appendPayload(dst []byte) []byte {
	dst = append(dst, m.Hash[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Sources)))
	for _, s := range m.Sources {
		dst = appendEndpoint(dst, s)
	}
	return dst
}

func decodeFoundSources(r *reader) (Message, error) {
	m := &FoundSources{}
	var err error
	if m.Hash, err = r.hash(); err != nil {
		return nil, err
	}
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if err := r.fits(n, endpointSize); err != nil {
		return nil, err
	}
	for i := uint32(0); i < n; i++ {
		e, err := readEndpoint(r)
		if err != nil {
			return nil, err
		}
		m.Sources = append(m.Sources, e)
	}
	return m, nil
}

// SearchUser asks the server for users whose nickname starts with the
// query — the (now removed) feature the paper's crawler was built on.
type SearchUser struct{ Query string }

func (*SearchUser) Opcode() byte { return OpSearchUser }

func (m *SearchUser) appendPayload(dst []byte) []byte { return appendString(dst, m.Query) }

func decodeSearchUser(r *reader) (Message, error) {
	s, err := r.string()
	if err != nil {
		return nil, err
	}
	return &SearchUser{Query: s}, nil
}

// SearchUserResult answers SearchUser with at most the server's reply cap
// (200 in the paper) of matching users.
type SearchUserResult struct{ Users []UserEntry }

func (*SearchUserResult) Opcode() byte { return OpSearchUserResult }

func (m *SearchUserResult) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Users)))
	for _, u := range m.Users {
		dst = appendUserEntry(dst, u)
	}
	return dst
}

func decodeSearchUserResult(r *reader) (Message, error) {
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if err := r.fits(n, userEntryMinSize); err != nil {
		return nil, err
	}
	m := &SearchUserResult{Users: make([]UserEntry, 0, n)}
	for i := uint32(0); i < n; i++ {
		var u UserEntry
		if u.Hash, err = r.hash(); err != nil {
			return nil, err
		}
		if u.ClientID, err = r.uint32(); err != nil {
			return nil, err
		}
		if u.Endpoint, err = readEndpoint(r); err != nil {
			return nil, err
		}
		if u.Nickname, err = r.string(); err != nil {
			return nil, err
		}
		m.Users = append(m.Users, u)
	}
	return m, nil
}

// ServerStatus reports user and file counts.
type ServerStatus struct {
	Users uint32
	Files uint32
}

func (*ServerStatus) Opcode() byte { return OpServerStatus }

func (m *ServerStatus) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, m.Users)
	return binary.LittleEndian.AppendUint32(dst, m.Files)
}

func decodeServerStatus(r *reader) (Message, error) {
	m := &ServerStatus{}
	var err error
	if m.Users, err = r.uint32(); err != nil {
		return nil, err
	}
	if m.Files, err = r.uint32(); err != nil {
		return nil, err
	}
	return m, nil
}

// IDChange tells a freshly logged-in client its server-assigned ID.
// Low IDs (< LowIDThreshold) mark firewalled clients.
type IDChange struct{ ClientID uint32 }

// LowIDThreshold separates firewalled (low) from reachable (high) IDs.
const LowIDThreshold = 0x01000000

// HighID is the client ID a server assigns a reachable client: its IP,
// lifted out of the low-ID range when the address falls inside it.
func HighID(ip uint32) uint32 {
	if ip < LowIDThreshold {
		return ip + LowIDThreshold
	}
	return ip
}

func (*IDChange) Opcode() byte { return OpIDChange }

func (m *IDChange) appendPayload(dst []byte) []byte {
	return binary.LittleEndian.AppendUint32(dst, m.ClientID)
}

func decodeIDChange(r *reader) (Message, error) {
	id, err := r.uint32()
	if err != nil {
		return nil, err
	}
	return &IDChange{ClientID: id}, nil
}

// Hello opens a client-client session.
type Hello struct {
	UserHash [16]byte
	Endpoint Endpoint
	Nickname string
}

func (*Hello) Opcode() byte { return OpHello }

func (m *Hello) appendPayload(dst []byte) []byte {
	dst = append(dst, m.UserHash[:]...)
	dst = appendEndpoint(dst, m.Endpoint)
	return appendString(dst, m.Nickname)
}

func decodeHello(r *reader) (Message, error) {
	m := &Hello{}
	var err error
	if m.UserHash, err = r.hash(); err != nil {
		return nil, err
	}
	if m.Endpoint, err = readEndpoint(r); err != nil {
		return nil, err
	}
	if m.Nickname, err = r.string(); err != nil {
		return nil, err
	}
	return m, nil
}

// HelloAnswer completes the client-client handshake.
type HelloAnswer struct {
	UserHash [16]byte
	Nickname string
}

func (*HelloAnswer) Opcode() byte { return OpHelloAnswer }

func (m *HelloAnswer) appendPayload(dst []byte) []byte {
	dst = append(dst, m.UserHash[:]...)
	return appendString(dst, m.Nickname)
}

func decodeHelloAnswer(r *reader) (Message, error) {
	m := &HelloAnswer{}
	var err error
	if m.UserHash, err = r.hash(); err != nil {
		return nil, err
	}
	if m.Nickname, err = r.string(); err != nil {
		return nil, err
	}
	return m, nil
}

// AskSharedFiles requests the peer's cache listing (browse). Users could
// disable answering it — and increasingly did, which is why the paper
// notes a similar crawl is no longer possible.
type AskSharedFiles struct{}

func (*AskSharedFiles) Opcode() byte { return OpAskSharedFiles }

func (*AskSharedFiles) appendPayload(dst []byte) []byte { return dst }

func decodeAskSharedFiles(*reader) (Message, error) { return &AskSharedFiles{}, nil }

// SharedFilesAnswer lists the peer's shared files.
type SharedFilesAnswer struct{ Files []FileEntry }

func (*SharedFilesAnswer) Opcode() byte { return OpSharedFilesAnswer }

func (m *SharedFilesAnswer) appendPayload(dst []byte) []byte { return appendFileEntries(dst, m.Files) }

func decodeSharedFilesAnswer(r *reader) (Message, error) {
	files, err := readFileEntries(r)
	if err != nil {
		return nil, err
	}
	return &SharedFilesAnswer{Files: files}, nil
}
