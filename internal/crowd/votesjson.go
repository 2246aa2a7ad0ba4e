package crowd

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The POST /votes body is one JSON object:
//
//	{"votes":[{"worker":0,"i":3,"j":7,"prefers_i":true}, ...]}
//
// AppendVotesJSON writes it and ReadVotesJSON reads it. ReadVotesJSON
// accepts exactly the bodies encoding/json's Decoder.Decode accepts into
//
//	struct{ Votes []struct{ Worker, I, J int; PrefersI bool } }
//
// (fields named as above) and yields the same votes:
//
//   - keys match their field case-insensitively under Unicode simple
//     folding (bytes.EqualFold, after escapes are decoded), so "WORKER"
//     and "wor\u212Aer" (a Kelvin sign) both name worker;
//   - members come in any order; a repeated key wins over earlier ones;
//     unknown members are skipped but must be well-formed JSON;
//   - null for the body, for "votes", for an element or for a field
//     leaves the value as it was (zero, unless an earlier member set it);
//   - worker, i and j take integer literals that fit an int; a fraction,
//     an exponent, an overflow or any other type is an error, and so is a
//     non-boolean prefers_i or a non-object element;
//   - bytes after the top-level value are ignored;
//   - a repeated "votes" array decodes over the elements the earlier one
//     left, as encoding/json reuses the slice: an element the later array
//     leaves out, or sets to null, keeps its earlier value, and an empty
//     array or null starts afresh.
//
// JSON syntax and the nesting limit are encoding/json's. A syntax error
// or a read error ends the scan; a type error is reported only once the
// whole value has been scanned, so syntax and read errors take precedence,
// as they do in encoding/json.

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// readBufSize is the scanner's read buffer, taken from a pool, so a
// request costs no buffer allocation whatever its size.
const readBufSize = 16 << 10

var readBufs = sync.Pool{New: func() any { return new([readBufSize]byte) }}

// Member keys, by field index.
var (
	bodyKeys = [][]byte{[]byte("votes")}
	voteKeys = [][]byte{[]byte("worker"), []byte("i"), []byte("j"), []byte("prefers_i")}
)

const (
	keyWorker = iota
	keyI
	keyJ
	keyPrefersI
)

// AppendVotesJSON appends the POST /votes body carrying votes to dst: the
// bytes encoding/json's Marshal writes for the body's struct form.
func AppendVotesJSON(dst []byte, votes []Vote) []byte {
	dst = append(dst, `{"votes":[`...)
	for k, v := range votes {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"worker":`...)
		dst = strconv.AppendInt(dst, int64(v.Worker), 10)
		dst = append(dst, `,"i":`...)
		dst = strconv.AppendInt(dst, int64(v.I), 10)
		dst = append(dst, `,"j":`...)
		dst = strconv.AppendInt(dst, int64(v.J), 10)
		dst = append(dst, `,"prefers_i":`...)
		dst = strconv.AppendBool(dst, v.PrefersI)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// ReadVotesJSON reads one POST /votes body from r into b in a single pass
// through a small pooled buffer: it holds neither the body nor its votes
// in any other form. Each element is kept packed, in b.Votes's own
// storage, and filed with Add once the body is scanned. b's N, M and Max
// are kept; its votes and counts are replaced. So Max bounds what the
// call stores, while b.Len still counts every vote of an oversized body.
// An error leaves b's contents unspecified. A read error from r is
// returned as is; a body that ends early is io.EOF when empty,
// io.ErrUnexpectedEOF otherwise.
func ReadVotesJSON(r io.Reader, b *Batch) error {
	buf := readBufs.Get().(*[readBufSize]byte)
	defer readBufs.Put(buf)
	b.reset()
	d := votesDecoder{r: r, buf: buf[:], b: b, back: b.Votes}
	if err := d.body(); err != nil {
		return err
	}
	if d.typeErr != nil {
		return d.typeErr
	}
	// Add keeps each well-formed vote in place, at or before the index it
	// is read from.
	b.Votes = d.back[:0]
	for _, p := range d.back[:min(d.count, b.Max)] {
		b.Add(p.Vote())
	}
	b.Len = d.count
	return nil
}

// votesDecoder is ReadVotesJSON's scanner. back is the vote slice
// encoding/json would hold, cut at b.Max elements: a repeated "votes"
// array decodes over it, and an element it leaves out keeps its earlier
// value. Votes are kept there in their clamped form (see clamp).
type votesDecoder struct {
	r    io.Reader
	buf  []byte
	i, n int   // buf[i:n] is read but unscanned
	rerr error // the error that ended the input, once buf[i:n] runs out
	off  int   // input bytes before buf[0], for error offsets

	typeErr error // the first type error, reported after the scan
	b       *Batch

	// back holds the first b.Max elements written since the slice was
	// last emptied, clamped; count is the slice's current length.
	back  []Packed
	count int
}

// clamp packs v with each id outside its universe replaced by the
// largest id Packed holds, which lies outside it too: Classify answers
// a vote whose fields mix v's and others' as it would with v's own. N and
// M must be below 2^31, as Pack requires of ids.
func (b *Batch) clamp(v Vote) Packed {
	p := Packed{W: math.MaxUint32 &^ 1, I: math.MaxUint32, J: math.MaxUint32}
	if 0 <= v.Worker && v.Worker < b.M {
		p.W = uint32(v.Worker) << 1
	}
	if v.PrefersI {
		p.W |= 1
	}
	if 0 <= v.I && v.I < b.N {
		p.I = uint32(v.I)
	}
	if 0 <= v.J && v.J < b.N {
		p.J = uint32(v.J)
	}
	return p
}

// grow returns s with room for one more of at most max elements. It
// doubles the capacity up to max, so a slice grown to max elements has
// cost at most three times its final size.
func grow(s []Packed, max int) []Packed {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, min(len(s)+16, max-len(s)))
}

// fill reads more input into the consumed buffer. It returns the error
// that ended the input once nothing more can be read.
func (d *votesDecoder) fill() error {
	if d.rerr != nil {
		return d.rerr
	}
	d.off += d.n
	for tries := 0; ; tries++ {
		n, err := d.r.Read(d.buf)
		d.i, d.n, d.rerr = 0, n, err
		switch {
		case n > 0:
			return nil
		case err != nil:
			return err
		case tries == 100:
			d.rerr = io.ErrNoProgress
			return d.rerr
		}
	}
}

// next returns the next byte; the input ending here, inside the value,
// is io.ErrUnexpectedEOF.
func (d *votesDecoder) next() (byte, error) {
	if d.i == d.n {
		if err := d.fill(); err != nil {
			return 0, unexpected(err)
		}
	}
	c := d.buf[d.i]
	d.i++
	return c, nil
}

// peek returns the next byte without consuming it; ok is false at the end
// of the input or on a read error, which the next read reports.
func (d *votesDecoder) peek() (c byte, ok bool) {
	if d.i == d.n && d.fill() != nil {
		return 0, false
	}
	return d.buf[d.i], true
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// space returns the next byte that is not whitespace.
func (d *votesDecoder) space() (byte, error) {
	for {
		for d.i < d.n {
			c := d.buf[d.i]
			d.i++
			if !isSpace(c) {
				return c, nil
			}
		}
		if err := d.fill(); err != nil {
			return 0, unexpected(err)
		}
	}
}

func (d *votesDecoder) syntax(c byte, context string) error {
	return fmt.Errorf("invalid character %q %s (offset %d)", c, context, d.off+d.i)
}

// mismatch records a type error: the value starting with c cannot be
// decoded into the named field.
func (d *votesDecoder) mismatch(c byte, field string, idx int, want string) {
	if d.typeErr != nil {
		return
	}
	var kind string
	switch c {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	default:
		kind = "number"
	}
	if idx >= 0 {
		field = fmt.Sprintf("votes[%d]%s", idx, field)
	}
	d.typeErr = fmt.Errorf("cannot decode %s into %s (want %s, offset %d)", kind, field, want, d.off+d.i)
}

// body scans the top-level value.
func (d *votesDecoder) body() error {
	var c byte
	for {
		if d.i == d.n {
			if err := d.fill(); err != nil {
				return err // io.EOF: no value at all
			}
		}
		c = d.buf[d.i]
		d.i++
		if !isSpace(c) {
			break
		}
	}
	switch c {
	case '{':
		return d.object()
	case 'n':
		if err := d.literal("ull"); err != nil {
			return err
		}
	default:
		d.mismatch(c, "body", -1, "object")
		if err := d.skip(c, 0); err != nil || c == '[' {
			return err
		}
	}
	// A scalar, unlike an array, ends only at the byte after it:
	// encoding/json reads that byte, or the end of the input, before it
	// decodes the value.
	if d.i == d.n {
		if err := d.fill(); err != nil && err != io.EOF {
			return err
		}
	}
	return nil
}

// object scans the top-level object, whose '{' is consumed.
func (d *votesDecoder) object() error {
	for first := true; ; first = false {
		f, c, end, err := d.member(first, bodyKeys)
		if err != nil || end {
			return err
		}
		switch {
		case f < 0:
			err = d.skip(c, 1)
		case c == '[':
			err = d.votes()
		case c == 'n':
			if err = d.literal("ull"); err == nil {
				d.restart()
			}
		default:
			d.mismatch(c, "votes", -1, "array")
			err = d.skip(c, 1)
		}
		if err != nil {
			return err
		}
	}
}

// restart empties the vote slice, as null or an empty array does.
func (d *votesDecoder) restart() {
	d.back, d.count = d.back[:0], 0
}

// votes scans a "votes" array, whose '[' is consumed.
func (d *votesDecoder) votes() error {
	b := d.b
	n := 0
	for first := true; ; first = false {
		c, end, err := d.element(first)
		if err != nil {
			return err
		}
		if end {
			break
		}
		var v Vote
		if n < len(d.back) {
			v = d.back[n].Vote()
		}
		switch c {
		case '{':
			if !d.canonical(&v) {
				err = d.vote(&v, n)
			}
		case 'n':
			err = d.literal("ull")
		default:
			d.mismatch(c, "", n, "object")
			err = d.skip(c, 2)
		}
		if err != nil {
			return err
		}
		switch {
		case n < len(d.back):
			d.back[n] = b.clamp(v)
		case n < b.Max:
			d.back = append(grow(d.back, b.Max), b.clamp(v))
		}
		n++
	}
	if n == 0 {
		d.restart()
		return nil
	}
	d.count = n
	return nil
}

// canonical decodes an element written exactly as AppendVotesJSON writes
// it, whose '{' is consumed, in place in the buffer. For any other form,
// or one that crosses a refill, it consumes nothing and returns false,
// and vote scans the element.
func (d *votesDecoder) canonical(v *Vote) bool {
	p := d.buf[d.i:d.n]
	w, p, ok := canonicalInt(p, `"worker":`)
	if !ok {
		return false
	}
	i, p, ok := canonicalInt(p, `,"i":`)
	if !ok {
		return false
	}
	j, p, ok := canonicalInt(p, `,"j":`)
	if !ok {
		return false
	}
	const yes, no = `,"prefers_i":true}`, `,"prefers_i":false}`
	prefers := len(p) >= len(yes) && string(p[:len(yes)]) == yes
	switch {
	case prefers:
		p = p[len(yes):]
	case len(p) >= len(no) && string(p[:len(no)]) == no:
		p = p[len(no):]
	default:
		return false
	}
	*v = Vote{Worker: w, I: i, J: j, PrefersI: prefers}
	d.i = d.n - len(p)
	return true
}

// canonicalInt reads key and then an integer literal of at most 18
// digits from the front of p.
func canonicalInt(p []byte, key string) (int, []byte, bool) {
	if len(p) < len(key) || string(p[:len(key)]) != key {
		return 0, p, false
	}
	p = p[len(key):]
	neg := len(p) > 0 && p[0] == '-'
	if neg {
		p = p[1:]
	}
	n := 0
	for n < len(p) && n <= 18 && '0' <= p[n] && p[n] <= '9' {
		n++
	}
	if n == 0 || n > 18 || p[0] == '0' && n > 1 {
		return 0, p, false
	}
	var x int64
	for _, c := range p[:n] {
		x = x*10 + int64(c-'0')
	}
	if neg {
		x = -x
	}
	if int64(int(x)) != x {
		return 0, p, false
	}
	return int(x), p[n:], true
}

// vote scans one element object, whose '{' is consumed, into v.
func (d *votesDecoder) vote(v *Vote, n int) error {
	for first := true; ; first = false {
		f, c, end, err := d.member(first, voteKeys)
		if err != nil || end {
			return err
		}
		switch {
		case f < 0:
			err = d.skip(c, 3)
		case c == 'n':
			err = d.literal("ull")
		case f == keyPrefersI:
			switch c {
			case 't':
				v.PrefersI, err = true, d.literal("rue")
			case 'f':
				v.PrefersI, err = false, d.literal("alse")
			default:
				d.mismatch(c, ".prefers_i", n, "bool")
				err = d.skip(c, 3)
			}
		case c == '-' || '0' <= c && c <= '9':
			var x int
			var ok bool
			if x, ok, err = d.number(c); ok {
				switch f {
				case keyWorker:
					v.Worker = x
				case keyI:
					v.I = x
				default:
					v.J = x
				}
			} else if err == nil {
				d.mismatch(c, "."+string(voteKeys[f]), n, "an integer that fits an int")
			}
		default:
			d.mismatch(c, "."+string(voteKeys[f]), n, "int")
			err = d.skip(c, 3)
		}
		if err != nil {
			return err
		}
	}
}

// member reads up to the value of an object's next member: it returns
// the index in keys of the field the key names (-1 for none) and the
// value's first byte, or end at the closing '}'. first says no member
// was read yet.
func (d *votesDecoder) member(first bool, keys [][]byte) (f int, c byte, end bool, err error) {
	if c, err = d.space(); err != nil {
		return
	}
	switch {
	case c == '}':
		return 0, c, true, nil
	case first:
	case c != ',':
		return 0, c, false, d.syntax(c, "after object key:value pair")
	default:
		if c, err = d.space(); err != nil {
			return
		}
	}
	if c != '"' {
		return 0, c, false, d.syntax(c, "looking for beginning of object key string")
	}
	if f, err = d.key(keys); err != nil {
		return
	}
	if c, err = d.space(); err != nil {
		return
	}
	if c != ':' {
		return 0, c, false, d.syntax(c, "after object key")
	}
	c, err = d.space()
	return
}

// element returns the first byte of an array's next element, or end at
// the closing ']'. first says no element was read yet.
func (d *votesDecoder) element(first bool) (c byte, end bool, err error) {
	if c, err = d.space(); err != nil {
		return
	}
	switch {
	case c == ']':
		return c, true, nil
	case first:
		return c, false, nil
	case c != ',':
		return c, false, d.syntax(c, "after array element")
	}
	c, err = d.space()
	return c, false, err
}

// key scans an object key, whose opening quote is consumed, and returns
// the index in keys of the field it names, or -1.
func (d *votesDecoder) key(keys [][]byte) (int, error) {
	// A key that names a field is at most 9 runes, each of at most 3
	// bytes; a longer one is only scanned. Raw bytes are kept as they
	// are: one that is not UTF-8, which encoding/json decodes to U+FFFD,
	// is a RuneError to bytes.EqualFold, and neither names a field.
	var kb [32]byte
	k, match := 0, len(keys) > 0
	for {
		if d.i == d.n {
			if err := d.fill(); err != nil {
				return -1, unexpected(err)
			}
		}
		c := d.buf[d.i]
		d.i++
		switch {
		case c == '"':
			if !match {
				return -1, nil
			}
			return fieldIndex(kb[:k], keys), nil
		case c == '\\':
			r, err := d.escape()
			if err != nil {
				return -1, err
			}
			// A surrogate escape decodes to U+FFFD or to a rune past
			// U+FFFF; neither folds to a field name's letters.
			if utf16.IsSurrogate(r) || k+utf8.RuneLen(r) > len(kb) {
				match = false
			}
			if match {
				k += utf8.EncodeRune(kb[k:], r)
			}
		case c < 0x20:
			return -1, d.syntax(c, "in string literal")
		case !match:
		case k == len(kb):
			match = false
		default:
			kb[k] = c
			k++
		}
	}
}

// fieldIndex returns the index of the key that key names, or -1.
func fieldIndex(key []byte, keys [][]byte) int {
	for f, name := range keys {
		if bytes.EqualFold(key, name) {
			return f
		}
	}
	return -1
}

// escape scans an escape sequence, whose backslash is consumed, and
// returns the rune it stands for; a surrogate is returned as such.
func (d *votesDecoder) escape() (rune, error) {
	c, err := d.next()
	if err != nil {
		return 0, err
	}
	switch c {
	case '"', '\\', '/':
		return rune(c), nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 't':
		return '\t', nil
	case 'u':
		var r rune
		for range 4 {
			if c, err = d.next(); err != nil {
				return 0, err
			}
			switch {
			case '0' <= c && c <= '9':
				c -= '0'
			case 'a' <= c && c <= 'f':
				c -= 'a' - 10
			case 'A' <= c && c <= 'F':
				c -= 'A' - 10
			default:
				return 0, d.syntax(c, "in \\u hexadecimal character escape")
			}
			r = r<<4 | rune(c)
		}
		return r, nil
	}
	return 0, d.syntax(c, "in string escape code")
}

// skip scans a value whose first byte c is consumed, inside containers
// nested depth deep.
func (d *votesDecoder) skip(c byte, depth int) error {
	switch c {
	case '{', '[':
		if depth >= maxJSONDepth {
			return d.syntax(c, "exceeding the maximum nesting depth")
		}
		if c == '{' {
			for first := true; ; first = false {
				_, c, end, err := d.member(first, nil)
				if err != nil || end {
					return err
				}
				if err := d.skip(c, depth+1); err != nil {
					return err
				}
			}
		}
		for first := true; ; first = false {
			c, end, err := d.element(first)
			if err != nil || end {
				return err
			}
			if err := d.skip(c, depth+1); err != nil {
				return err
			}
		}
	case '"':
		_, err := d.key(nil)
		return err
	case 't':
		return d.literal("rue")
	case 'f':
		return d.literal("alse")
	case 'n':
		return d.literal("ull")
	}
	if c == '-' || '0' <= c && c <= '9' {
		_, _, err := d.number(c)
		return err
	}
	return d.syntax(c, "looking for beginning of value")
}

// literal scans the rest of true, false or null.
func (d *votesDecoder) literal(rest string) error {
	for k := 0; k < len(rest); k++ {
		c, err := d.next()
		if err != nil {
			return err
		}
		if c != rest[k] {
			return d.syntax(c, "in literal")
		}
	}
	return nil
}

// number scans a number whose first byte c is consumed. ok reports that
// it is an integer literal that fits an int, as encoding/json requires of
// an int field, and x is its value.
func (d *votesDecoder) number(c byte) (x int, ok bool, err error) {
	neg := c == '-'
	if neg {
		if c, err = d.next(); err != nil {
			return 0, false, err
		}
	}
	if c < '0' || c > '9' {
		return 0, false, d.syntax(c, "in numeric literal")
	}
	// u holds the magnitude until it exceeds what any int64 can take.
	u, big := uint64(c-'0'), false
	if c != '0' {
		for {
			c, more := d.peek()
			if !more || c < '0' || c > '9' {
				break
			}
			d.i++
			if u > (1<<63)/10 {
				big = true
			} else {
				u = u*10 + uint64(c-'0')
			}
		}
	}
	ok = true
	if c, more := d.peek(); more && c == '.' {
		d.i++
		ok = false
		if err = d.digits("after decimal point in numeric literal"); err != nil {
			return 0, false, err
		}
	}
	if c, more := d.peek(); more && (c == 'e' || c == 'E') {
		d.i++
		ok = false
		if c, more = d.peek(); more && (c == '+' || c == '-') {
			d.i++
		}
		if err = d.digits("in exponent of numeric literal"); err != nil {
			return 0, false, err
		}
	}
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	if !ok || big || u > limit {
		return 0, false, nil
	}
	x64 := int64(u)
	if neg {
		x64 = -x64
	}
	if int64(int(x64)) != x64 {
		return 0, false, nil
	}
	return int(x64), true, nil
}

// digits scans one or more decimal digits.
func (d *votesDecoder) digits(context string) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c < '0' || c > '9' {
		return d.syntax(c, context)
	}
	for {
		c, more := d.peek()
		if !more || c < '0' || c > '9' {
			return nil
		}
		d.i++
	}
}
