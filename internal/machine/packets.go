// Package machine is an executable model of the paper's Section 4
// design: a ring-based data-flow database machine with a master
// controller (MC), instruction controllers (ICs) on a low-bandwidth
// inner ring, instruction processors (IPs) on a high-bandwidth outer
// ring, a three-level storage hierarchy (IC local memory, multiport
// disk cache, mass storage), and the packet protocol of Figures
// 4.3–4.5 — including the broadcast nested-loops join with per-IP
// inner-relation-control (IRC) vectors and missed-broadcast recovery.
//
// The machine executes real queries on real pages under virtual time:
// the discrete-event kernel advances a clock while IPs run the actual
// operator kernels, so a simulation yields both the answer (checked
// against the serial executor) and the timing/traffic measurements of
// the design study.
package machine

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"dfdbm/internal/relation"
)

// Packet kinds on the rings.
type packetKind uint8

const (
	pktInstruction packetKind = iota + 1
	pktResult
	pktControl
	pktCompletion
)

// Control message codes (the Message field of Figure 4.5).
type controlMsg uint8

const (
	// msgDone: the IP finished the packet and is ready for more work.
	msgDone controlMsg = iota + 1
	// msgNeedInner: the IP requests inner-relation page PageNo.
	msgNeedInner
	// msgNeedOuter: the IP finished its outer page against every inner
	// page and wants an undistributed outer page.
	msgNeedOuter
)

// InstructionPacket is the Figure 4.3 packet: the unit an IC sends to an
// IP over the outer ring.
type InstructionPacket struct {
	IPID          int
	QueryID       int
	ICIDSender    int
	ICIDDest      int
	FlushWhenDone bool
	Opcode        uint8 // query.OpKind value
	// ResultRelation describes the result operand.
	ResultRelation string
	ResultTupleLen int
	// Broadcast marks a join inner-page broadcast (delivered to every
	// IP working on QueryID); InnerPageNo identifies the page and
	// LastInner marks the final page of the inner relation.
	Broadcast   bool
	InnerPageNo int
	LastInner   bool
	// OuterPageNo tags the outer operand for join bookkeeping.
	OuterPageNo int
	// JoinedInner seeds the receiving IP's IRC vector with inner pages
	// already joined against this outer page. It is non-empty only when
	// a fault plan re-dispatches a partially-joined outer page to a
	// replacement processor (the regenerated IRC of the recovery
	// protocol).
	JoinedInner []int
	// Pages are the source-operand data pages (Figure 4.3 allows one
	// per source operand; restrict packets carry one, join packets up
	// to two, flush packets zero).
	Pages []*relation.Page
}

// ResultPacket is the Figure 4.4 packet: result pages travelling from
// an IP to the IC controlling the consuming instruction.
type ResultPacket struct {
	ICID     int
	QueryID  int
	Relation string
	Page     *relation.Page
}

// ControlPacket is the Figure 4.5 packet.
type ControlPacket struct {
	ICID    int
	IPID    int
	QueryID int
	Message controlMsg
	PageNo  int
}

const packetMagic uint32 = 0x0DF1_0479

// WireSize returns the bytes the packet occupies on the ring: the
// fixed header fields of Figure 4.3 plus the wire size of each data
// page. (Marshal produces exactly this many bytes.)
func (p *InstructionPacket) WireSize() int {
	n := instrFixedHeader + len(p.ResultRelation) + 4*len(p.JoinedInner)
	for _, pg := range p.Pages {
		n += 4 + pg.WireSize()
	}
	return n
}

// instrFixedHeader covers magic (4), kind (1), eight numeric fields
// (32), three flags plus the opcode (4), a reserved word (4), the
// relation-name length and pad (2), and the IRC-seed entry count (2).
const instrFixedHeader = 4 + 1 + 4*8 + 4 + 4 + 2 + 2

// Marshal encodes the packet.
func (p *InstructionPacket) Marshal() []byte {
	out := make([]byte, 0, p.WireSize())
	out = binary.LittleEndian.AppendUint32(out, packetMagic)
	out = append(out, byte(pktInstruction))
	for _, v := range []int{p.IPID, p.QueryID, p.ICIDSender, p.ICIDDest,
		p.InnerPageNo, p.OuterPageNo, p.ResultTupleLen, len(p.Pages)} {
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(v)))
	}
	out = append(out, boolByte(p.FlushWhenDone), boolByte(p.Broadcast), boolByte(p.LastInner))
	out = append(out, p.Opcode)
	out = binary.LittleEndian.AppendUint32(out, 0) // reserved
	out = append(out, byte(len(p.ResultRelation)), 0)
	out = append(out, p.ResultRelation...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(p.JoinedInner)))
	for _, idx := range p.JoinedInner {
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(idx)))
	}
	for _, pg := range p.Pages {
		blob := pg.Marshal()
		out = binary.LittleEndian.AppendUint32(out, uint32(len(blob)))
		out = append(out, blob...)
	}
	return out
}

// UnmarshalInstruction decodes an instruction packet.
func UnmarshalInstruction(b []byte) (*InstructionPacket, error) {
	if len(b) < instrFixedHeader {
		return nil, fmt.Errorf("machine: instruction packet too short (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b) != packetMagic || b[4] != byte(pktInstruction) {
		return nil, fmt.Errorf("machine: not an instruction packet")
	}
	p := &InstructionPacket{}
	off := 5
	ints := make([]int, 8)
	for i := range ints {
		ints[i] = int(int32(binary.LittleEndian.Uint32(b[off:])))
		off += 4
	}
	p.IPID, p.QueryID, p.ICIDSender, p.ICIDDest = ints[0], ints[1], ints[2], ints[3]
	p.InnerPageNo, p.OuterPageNo, p.ResultTupleLen = ints[4], ints[5], ints[6]
	nPages := ints[7]
	p.FlushWhenDone = b[off] != 0
	p.Broadcast = b[off+1] != 0
	p.LastInner = b[off+2] != 0
	p.Opcode = b[off+3]
	off += 4 + 4 // flags+opcode, reserved
	nameLen := int(b[off])
	off += 2
	if off+nameLen > len(b) {
		return nil, fmt.Errorf("machine: truncated relation name")
	}
	p.ResultRelation = string(b[off : off+nameLen])
	off += nameLen
	if off+2 > len(b) {
		return nil, fmt.Errorf("machine: truncated IRC seed count")
	}
	nJoined := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if off+4*nJoined > len(b) {
		return nil, fmt.Errorf("machine: truncated IRC seed")
	}
	for i := 0; i < nJoined; i++ {
		p.JoinedInner = append(p.JoinedInner, int(int32(binary.LittleEndian.Uint32(b[off:]))))
		off += 4
	}
	for i := 0; i < nPages; i++ {
		if off+4 > len(b) {
			return nil, fmt.Errorf("machine: truncated page length")
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if off+n > len(b) {
			return nil, fmt.Errorf("machine: truncated page payload")
		}
		pg, err := relation.UnmarshalPage(bytes.Clone(b[off : off+n]))
		if err != nil {
			return nil, err
		}
		off += n
		p.Pages = append(p.Pages, pg)
	}
	if off != len(b) {
		return nil, fmt.Errorf("machine: %d trailing bytes in instruction packet", len(b)-off)
	}
	return p, nil
}

// WireSize returns the result packet's size on the ring (Figure 4.4:
// ICid, lengths, relation name, data page).
func (p *ResultPacket) WireSize() int {
	return 4 + 1 + 4 + 4 + 2 + len(p.Relation) + 4 + p.Page.WireSize()
}

// Marshal encodes the packet.
func (p *ResultPacket) Marshal() []byte {
	out := make([]byte, 0, p.WireSize())
	out = binary.LittleEndian.AppendUint32(out, packetMagic)
	out = append(out, byte(pktResult))
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(p.ICID)))
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(p.QueryID)))
	out = append(out, byte(len(p.Relation)), 0)
	out = append(out, p.Relation...)
	blob := p.Page.Marshal()
	out = binary.LittleEndian.AppendUint32(out, uint32(len(blob)))
	out = append(out, blob...)
	return out
}

// UnmarshalResult decodes a result packet.
func UnmarshalResult(b []byte) (*ResultPacket, error) {
	if len(b) < 15 || binary.LittleEndian.Uint32(b) != packetMagic || b[4] != byte(pktResult) {
		return nil, fmt.Errorf("machine: not a result packet")
	}
	p := &ResultPacket{}
	p.ICID = int(int32(binary.LittleEndian.Uint32(b[5:])))
	p.QueryID = int(int32(binary.LittleEndian.Uint32(b[9:])))
	nameLen := int(b[13])
	off := 15
	if off+nameLen+4 > len(b) {
		return nil, fmt.Errorf("machine: truncated result packet")
	}
	p.Relation = string(b[off : off+nameLen])
	off += nameLen
	n := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if off+n != len(b) {
		return nil, fmt.Errorf("machine: result packet length mismatch")
	}
	pg, err := relation.UnmarshalPage(bytes.Clone(b[off:]))
	if err != nil {
		return nil, err
	}
	p.Page = pg
	return p, nil
}

// WireSize returns the control packet's size (Figure 4.5).
const controlWireSize = 4 + 1 + 4 + 4 + 4 + 1 + 4

// WireSize returns the bytes the packet occupies on a ring.
func (p *ControlPacket) WireSize() int { return controlWireSize }

// Marshal encodes the packet.
func (p *ControlPacket) Marshal() []byte {
	out := make([]byte, 0, controlWireSize)
	out = binary.LittleEndian.AppendUint32(out, packetMagic)
	out = append(out, byte(pktControl))
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(p.ICID)))
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(p.IPID)))
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(p.QueryID)))
	out = append(out, byte(p.Message))
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(p.PageNo)))
	return out
}

// UnmarshalControl decodes a control packet.
func UnmarshalControl(b []byte) (*ControlPacket, error) {
	if len(b) != controlWireSize || binary.LittleEndian.Uint32(b) != packetMagic || b[4] != byte(pktControl) {
		return nil, fmt.Errorf("machine: not a control packet")
	}
	return &ControlPacket{
		ICID:    int(int32(binary.LittleEndian.Uint32(b[5:]))),
		IPID:    int(int32(binary.LittleEndian.Uint32(b[9:]))),
		QueryID: int(int32(binary.LittleEndian.Uint32(b[13:]))),
		Message: controlMsg(b[17]),
		PageNo:  int(int32(binary.LittleEndian.Uint32(b[18:]))),
	}, nil
}

// CompletionPacket reports one finished work unit — an operand page of
// a unary instruction, or one (outer page, inner page) join step — from
// an IP to its controlling IC, carrying the result pages the unit
// produced. Shipping results and the done notice in one atomic packet
// is what makes recovery exact: either the IC sees the unit complete
// with all its output, or the packet is lost and the unit is
// re-dispatched whole. Used only under a fault plan; the fault-free
// protocol streams results and signals done separately.
type CompletionPacket struct {
	ICID    int
	IPID    int
	QueryID int
	// OuterPageNo is the finished operand page (unary) or outer page
	// (join).
	OuterPageNo int
	// InnerPageNo is the inner page just joined, or -1 for unary work.
	InnerPageNo int
	// Pages are the result pages the work unit produced.
	Pages []*relation.Page
}

// completionFixedHeader covers magic (4), kind (1), five numeric
// fields (20), and the page count (4).
const completionFixedHeader = 4 + 1 + 4*5 + 4

// WireSize returns the bytes the packet occupies on the ring.
func (p *CompletionPacket) WireSize() int {
	n := completionFixedHeader
	for _, pg := range p.Pages {
		n += 4 + pg.WireSize()
	}
	return n
}

// Marshal encodes the packet.
func (p *CompletionPacket) Marshal() []byte {
	out := make([]byte, 0, p.WireSize())
	out = binary.LittleEndian.AppendUint32(out, packetMagic)
	out = append(out, byte(pktCompletion))
	for _, v := range []int{p.ICID, p.IPID, p.QueryID, p.OuterPageNo, p.InnerPageNo} {
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(v)))
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(p.Pages)))
	for _, pg := range p.Pages {
		blob := pg.Marshal()
		out = binary.LittleEndian.AppendUint32(out, uint32(len(blob)))
		out = append(out, blob...)
	}
	return out
}

// UnmarshalCompletion decodes a completion packet.
func UnmarshalCompletion(b []byte) (*CompletionPacket, error) {
	if len(b) < completionFixedHeader {
		return nil, fmt.Errorf("machine: completion packet too short (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b) != packetMagic || b[4] != byte(pktCompletion) {
		return nil, fmt.Errorf("machine: not a completion packet")
	}
	p := &CompletionPacket{}
	off := 5
	ints := make([]int, 5)
	for i := range ints {
		ints[i] = int(int32(binary.LittleEndian.Uint32(b[off:])))
		off += 4
	}
	p.ICID, p.IPID, p.QueryID, p.OuterPageNo, p.InnerPageNo = ints[0], ints[1], ints[2], ints[3], ints[4]
	nPages := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	for i := 0; i < nPages; i++ {
		if off+4 > len(b) {
			return nil, fmt.Errorf("machine: truncated page length")
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if off+n > len(b) {
			return nil, fmt.Errorf("machine: truncated page payload")
		}
		pg, err := relation.UnmarshalPage(bytes.Clone(b[off : off+n]))
		if err != nil {
			return nil, err
		}
		off += n
		p.Pages = append(p.Pages, pg)
	}
	if off != len(b) {
		return nil, fmt.Errorf("machine: %d trailing bytes in completion packet", len(b)-off)
	}
	return p, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
