package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"

	"topkmon/topk"
)

// ErrBatchTooLarge rejects a batch exceeding the server's per-request
// update limit before it is fully decoded.
var ErrBatchTooLarge = errors.New("serve: batch exceeds update limit")

// updateJSON is the wire shape of one update. Pointer fields distinguish
// "absent" from a legitimate zero, so a half-specified element is rejected
// instead of silently defaulting.
type updateJSON struct {
	Node  *int   `json:"node"`
	Value *int64 `json:"value"`
}

// DecodeBatch strictly decodes an update batch — a JSON array of
// {"node": int, "value": int64} objects — appending to dst[:0] and reusing
// its capacity. It is all-or-nothing by construction: any error (malformed
// JSON, unknown or missing fields, numeric overflow, more than max
// elements, trailing data after the array) returns a nil batch, so a
// handler can never partially apply a bad request. Range validation of
// node ids and values stays with Monitor.UpdateBatch, which itself
// validates the whole batch before staging anything.
func DecodeBatch(r io.Reader, dst []topk.Update, max int) ([]topk.Update, error) {
	dst = dst[:0]
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()

	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("serve: batch: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return nil, fmt.Errorf("serve: batch must be a JSON array, got %v", tok)
	}
	for dec.More() {
		if len(dst) >= max {
			return nil, fmt.Errorf("%w (max %d)", ErrBatchTooLarge, max)
		}
		var u updateJSON
		if err := dec.Decode(&u); err != nil {
			return nil, fmt.Errorf("serve: batch element %d: %w", len(dst), err)
		}
		if u.Node == nil || u.Value == nil {
			return nil, fmt.Errorf("serve: batch element %d: need both \"node\" and \"value\"", len(dst))
		}
		dst = append(dst, topk.Update{Node: *u.Node, Value: *u.Value})
	}
	if _, err := dec.Token(); err != nil { // the closing ']'
		return nil, fmt.Errorf("serve: batch: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("serve: trailing data after batch array")
	}
	return dst, nil
}

// decodeOne strictly decodes a request body holding exactly one JSON value
// into v: unknown fields are rejected, and so is anything but whitespace
// after the value, as DecodeBatch rejects data after the batch array.
func decodeOne(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// ParseIngestID extracts the idempotency parameters of an update request:
// ?client= names the retrying client (any short string; "" is a valid
// single-client identity) and ?seq= is its positive sequence number. seq
// absent or 0 means "no idempotency requested" — the batch always commits
// a fresh step. A seq that is present but unparsable is a client bug and
// is rejected rather than silently committed without idempotency.
func ParseIngestID(q url.Values) (client string, seq uint64, err error) {
	client = q.Get("client")
	if len(client) > 128 {
		return "", 0, errors.New("serve: client id longer than 128 bytes")
	}
	raw := q.Get("seq")
	if raw == "" {
		return client, 0, nil
	}
	seq, err = strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("serve: seq: %w", err)
	}
	return client, seq, nil
}
