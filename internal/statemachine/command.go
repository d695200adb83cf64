// Package statemachine provides the replicated-state-machine layer on
// top of atomic broadcast (paper §1, [33]): clients submit commands,
// the consensus layer orders them into block payloads, and every replica
// applies the same sequence to a key-value store, ending in the same
// state.
//
// It also implements the payload-construction logic Fig. 1 leaves to the
// application (getPayload): a command queue that batches pending
// commands and uses the chain context to avoid re-proposing commands
// that are already in the path being extended (§3.3: "in constructing
// the payload ... a party ... can take into account the payloads in the
// blocks already in that path (for example, to avoid duplicating
// commands)").
package statemachine

import (
	"errors"
	"fmt"

	"icc/internal/types"
)

// Op is a state-machine operation code.
type Op uint8

// Supported operations.
const (
	OpSet Op = iota + 1
	OpDelete
	OpAppend
)

// Command is one client command. (Client, Seq) identifies it uniquely:
// replicas apply each identity at most once, and per-client commands
// apply in Seq order.
type Command struct {
	Client uint64
	Seq    uint64
	Op     Op
	Key    string
	Value  []byte
}

// ident is the dedup identity of a command.
type ident struct {
	client uint64
	seq    uint64
}

// ErrBadPayload is returned when decoding a malformed payload.
var ErrBadPayload = errors.New("statemachine: malformed payload")

// payloadHeaderSize is the fixed encoding overhead of a payload (the
// u32 command count).
const payloadHeaderSize = 4

// WireSize returns the exact number of bytes the command occupies inside
// an encoded payload: u64 client + u64 seq + u8 op + two
// u32-length-prefixed byte strings.
func (c Command) WireSize() int {
	return 8 + 8 + 1 + 4 + len(c.Key) + 4 + len(c.Value)
}

// EncodedPayloadSize returns the exact encoded size of a batch.
func EncodedPayloadSize(cmds []Command) int {
	size := payloadHeaderSize
	for _, c := range cmds {
		size += c.WireSize()
	}
	return size
}

// EncodePayload serialises a batch of commands into a block payload.
// The encoder is sized exactly, so large batches serialise without
// intermediate re-allocations.
func EncodePayload(cmds []Command) []byte {
	e := types.NewEncoder(EncodedPayloadSize(cmds))
	e.U32(uint32(len(cmds)))
	for _, c := range cmds {
		e.U64(c.Client)
		e.U64(c.Seq)
		e.U8(uint8(c.Op))
		e.VarBytes([]byte(c.Key))
		e.VarBytes(c.Value)
	}
	return e.Bytes()
}

// DecodePayload parses a block payload into commands. An empty payload
// decodes to no commands.
func DecodePayload(payload []byte) ([]Command, error) {
	if len(payload) == 0 {
		return nil, nil
	}
	if len(payload) > types.MaxPayloadBytes {
		return nil, fmt.Errorf("%w: payload %d bytes exceeds %d", ErrBadPayload, len(payload), types.MaxPayloadBytes)
	}
	d := types.NewDecoder(payload)
	count := int(d.U32())
	if d.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, d.Err())
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("%w: absurd command count %d", ErrBadPayload, count)
	}
	cmds := make([]Command, 0, count)
	for i := 0; i < count; i++ {
		var c Command
		c.Client = d.U64()
		c.Seq = d.U64()
		c.Op = Op(d.U8())
		c.Key = string(d.VarBytes())
		c.Value = d.VarBytes()
		if d.Err() != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPayload, d.Err())
		}
		cmds = append(cmds, c)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return cmds, nil
}
