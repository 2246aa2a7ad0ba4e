package crowd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// refVoteJSON and refIngestRequest are the POST /votes body's struct
// form; encoding/json decoding into them is the reference ReadVotesJSON
// must match.
type refVoteJSON struct {
	Worker   int  `json:"worker"`
	I        int  `json:"i"`
	J        int  `json:"j"`
	PrefersI bool `json:"prefers_i"`
}

type refIngestRequest struct {
	Votes []refVoteJSON `json:"votes"`
}

// The universe the differential tests check votes against: small enough
// that generated votes are often malformed.
const refN, refM = 4, 3

// outcome is what crowdrankd makes of a body: the status it answers
// before the batch reaches the journal, and the batch when that is 200
// or the 413 of an oversized batch.
type outcome struct {
	status    int
	votes     []Packed
	malformed int
	len       int
}

func outcomeOf(b Batch, err error) outcome {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return outcome{status: http.StatusRequestEntityTooLarge}
	case err != nil:
		return outcome{status: http.StatusBadRequest}
	case b.Len > b.Max:
		return outcome{status: http.StatusRequestEntityTooLarge, len: b.Len}
	}
	return outcome{status: http.StatusOK, votes: b.Votes, malformed: b.Malformed, len: b.Len}
}

// referenceReadVotes decodes body as crowdrankd did before ReadVotesJSON:
// encoding/json into the struct form, then one Add per vote.
func referenceReadVotes(r io.Reader, max int) outcome {
	var req refIngestRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return outcomeOf(Batch{}, err)
	}
	b := Batch{N: refN, M: refM, Max: max}
	for _, v := range req.Votes {
		b.Add(Vote{Worker: v.Worker, I: v.I, J: v.J, PrefersI: v.PrefersI})
	}
	return outcomeOf(b, nil)
}

// readers wrap a body so that every refill boundary is exercised.
var readers = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

// limited is body behind the body cap crowdrankd puts on a request.
func limited(body []byte, limit int64) io.Reader {
	return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit)
}

// checkAgainstReference requires ReadVotesJSON to answer body exactly as
// the reference does, through each reader.
func checkAgainstReference(t *testing.T, body []byte, limit int64, max int) {
	t.Helper()
	want := referenceReadVotes(limited(body, limit), max)
	for _, rd := range readers {
		b := Batch{N: refN, M: refM, Max: max}
		err := ReadVotesJSON(rd.wrap(limited(body, limit)), &b)
		got := outcomeOf(b, err)
		if got.status != want.status || got.len != want.len || got.malformed != want.malformed ||
			!slices.Equal(got.votes, want.votes) {
			t.Fatalf("%s reader, limit %d, cap %d, body %q:\ngot  %+v (err %v)\nwant %+v",
				rd.name, limit, max, body, got, err, want)
		}
	}
}

var votesJSONSeeds = []string{
	`{"votes":[{"worker":1,"i":0,"j":1,"prefers_i":true},{"worker":2,"i":3,"j":2,"prefers_i":false}]}`,
	`{"votes":[]}`,
	`{}`,
	`null`,
	`null garbage`,
	` {"votes":null} `,
	`{"votes":[null,{"worker":null,"i":1,"j":2,"prefers_i":null}]}`,
	`{"votes":[{"i":1,"j":0}]} trailing garbage`,
	`{"votes":[{"i":1,"j":0}]}{"votes":[{}]}`,
	// Case folding, Kelvin sign and long s, and escaped keys.
	`{"VOTES":[{"Worker":2,"I":1,"J":3,"Prefers_I":true}]}`,
	`{"votes":[{"wor\u212Aer":2,"i":1,"j":3}]}`,
	"{\"vote\u017F\":[{\"i\":1,\"j\":3}]}",
	`{"vote\u017F":[{"\u0069":1,"\u006a":3,"prefer\u017F_i":true}]}`,
	`{"votes":[{"\u0130":1,"\u0131":2,"j":3}]}`,
	`{"votes":[{"\ud83d\ude00":1,"\ud800i":2,"i":1,"j":2,"\udc00":"\ud800\u0041"}]}`,
	`{"votes":[{"i\u0000":1,"i":1,"j":2}]}`,
	// Numbers.
	`{"votes":[{"worker":-0,"i":1,"j":2}]}`,
	`{"votes":[{"worker":1e2,"i":1,"j":2}]}`,
	`{"votes":[{"worker":1.0,"i":1,"j":2}]}`,
	`{"votes":[{"worker":9223372036854775807,"i":1,"j":2}]}`,
	`{"votes":[{"worker":-9223372036854775808,"i":1,"j":2}]}`,
	`{"votes":[{"worker":9223372036854775808,"i":1,"j":2}]}`,
	`{"votes":[{"worker":01,"i":1,"j":2}]}`,
	`{"votes":[{"worker":-,"i":1,"j":2}]}`,
	`{"votes":[{"x":[1.5e-3,-0.0,1E+9,{"y":"\n"}],"i":1,"j":2}]}`,
	`12`,
	`12x`,
	`"votes"`,
	`[{"i":1,"j":2}]`,
	`true`,
	// Type errors.
	`{"votes":{"i":1}}`,
	`{"votes":[1]}`,
	`{"votes":[{"i":"1","j":2}]}`,
	`{"votes":[{"i":1,"j":2,"prefers_i":1}]}`,
	`{"votes":[{"i":1,"j":2,"prefers_i":"true"}]}`,
	`{"votes":[{"i":true,"j":[2]}]}`,
	// A type error before a syntax error is still a syntax error.
	`{"votes":[{"i":1.5,"j":2}]`,
	// Repeated keys: the last wins, and a repeated votes array decodes
	// over the earlier one's elements.
	`{"votes":[{"worker":1,"i":0,"j":1,"worker":2,"i":3}]}`,
	`{"votes":[{"worker":1,"i":0,"j":1},{"worker":2,"i":2,"j":3}],"votes":[{"i":3}]}`,
	`{"votes":[{"worker":1,"i":0,"j":1},{"i":2,"j":2},{"i":1,"j":3}],"votes":[null],"votes":[{"worker":2},null,{}]}`,
	`{"votes":[{"worker":1,"i":0,"j":1}],"votes":[],"votes":[{"j":2}]}`,
	`{"votes":[{"worker":1,"i":0,"j":1}],"votes":null,"votes":[{"j":2}]}`,
	`{"votes":[{"worker":1,"i":0,"j":1}],"votes":5,"votes":[{"j":2}]}`,
	// Syntax errors.
	``,
	`   `,
	`{`,
	`{"votes":[{"i":1,"j":2},]}`,
	`{"votes":[{"i":1,"j":2,}]}`,
	`{"votes" [] }`,
	`{"vo\tes":[]}`,
	`{"votes":[{"i":1,"j":2}] "x":1}`,
	`{"a":"\x"}`,
	`{"a":"\u12G4"}`,
	`{"a":tru}`,
	`{"a":nul}`,
	`{"a":1.}`,
	`{"a":1e}`,
	`{"a":.5}`,
	`{"a":+1}`,
	"\xef\xbb\xbf{}",
}

func TestReadVotesJSONMatchesEncodingJSON(t *testing.T) {
	for _, body := range votesJSONSeeds {
		for _, max := range []int{1, 2, 64} {
			checkAgainstReference(t, []byte(body), int64(len(body)), max)
			checkAgainstReference(t, []byte(body), int64(len(body)/2), max)
		}
	}
}

// TestReadVotesJSONNesting pins encoding/json's nesting limit: 10000
// containers deep is JSON, one more is a syntax error.
func TestReadVotesJSONNesting(t *testing.T) {
	for _, depth := range []int{9999, 10000, 10001} {
		inner := depth - 1 // the body object is the first container
		body := `{"x":` + strings.Repeat("[", inner) + strings.Repeat("]", inner) + `}`
		checkAgainstReference(t, []byte(body), int64(len(body)), 8)
	}
}

// TestReadVotesJSONMutations compares ReadVotesJSON with the reference on
// generated bodies and single-byte mutations of them.
func TestReadVotesJSONMutations(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 41))
	for range 3000 {
		body := genBody(rng)
		if rng.IntN(2) == 0 {
			mutate(rng, body)
		}
		limit := int64(len(body))
		if rng.IntN(4) == 0 {
			limit = rng.Int64N(limit + 1)
		}
		checkAgainstReference(t, body, limit, 1+rng.IntN(4))
	}
}

// FuzzVotesJSON is the differential check: on any body, behind any body
// cap, ReadVotesJSON and encoding/json agree on the status, and on the
// votes, the malformed count and the length of the batch.
func FuzzVotesJSON(f *testing.F) {
	for _, body := range votesJSONSeeds {
		f.Add([]byte(body), uint16(len(body)), uint8(2))
	}
	f.Add([]byte(`{"votes":[{"i":1,"j":2},{"i":1,"j":2},{"i":1,"j":2}]}`), uint16(100), uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, limit uint16, max uint8) {
		checkAgainstReference(t, body, int64(limit), 1+int(max%8))
	})
}

// genBody returns a random POST /votes body: mostly well formed, with
// case-folded and escaped keys, nulls, unknown members, repeated keys,
// numbers of every form and trailing bytes.
func genBody(rng *rand.Rand) []byte {
	var b bytes.Buffer
	pick := func(s ...string) string { return s[rng.IntN(len(s))] }
	key := func(name string) string {
		switch rng.IntN(6) {
		case 0:
			return strings.ToUpper(name)
		case 1:
			return strings.ReplaceAll(strings.ReplaceAll(name, "k", `\u212A`), "s", "\u017F")
		case 2:
			return fmt.Sprintf(`\u%04x`, name[0]) + name[1:]
		case 3:
			return pick(name+"x", "x", `\ud800`+name, name)
		}
		return name
	}
	var value func(depth int) string
	value = func(depth int) string {
		switch rng.IntN(9) {
		case 0:
			return pick("null", "true", "false")
		case 1:
			return pick(`"s"`, `"\n\u00e9"`, `""`)
		case 2:
			return pick("1.5", "-0", "1e2", "2E-1", "9223372036854775808", "-9223372036854775809")
		case 3:
			if depth < 3 {
				return "[" + value(depth+1) + "," + value(depth+1) + "]"
			}
		case 4:
			if depth < 3 {
				return `{"k":` + value(depth+1) + "}"
			}
		}
		return fmt.Sprint(rng.IntN(6) - 1)
	}
	vote := func() string {
		if rng.IntN(10) == 0 {
			return pick("null", "1", `"v"`, "[]")
		}
		var fields []string
		for range rng.IntN(6) {
			name := pick("worker", "i", "j", "prefers_i", "other")
			v := value(2)
			switch {
			case name == "prefers_i" && rng.IntN(3) > 0:
				v = pick("true", "false")
			case name != "other" && name != "prefers_i" && rng.IntN(3) > 0:
				v = fmt.Sprint(rng.IntN(5))
			}
			fields = append(fields, `"`+key(name)+`":`+v)
		}
		return "{" + strings.Join(fields, ",") + "}"
	}
	b.WriteString("{")
	for k := range rng.IntN(4) {
		if k > 0 {
			b.WriteString(",")
		}
		switch rng.IntN(8) {
		case 0:
			b.WriteString(`"x":` + value(1))
		case 1:
			b.WriteString(`"` + key("votes") + `":` + pick("null", "[]", "{}", "3"))
		default:
			var votes []string
			for range rng.IntN(6) {
				votes = append(votes, vote())
			}
			b.WriteString(`"` + key("votes") + `":[` + strings.Join(votes, ",") + "]")
		}
	}
	b.WriteString("}")
	b.WriteString(pick("", " ", "x", "]"))
	return b.Bytes()
}

// mutate replaces one byte of body with one that JSON gives a meaning.
func mutate(rng *rand.Rand, body []byte) {
	const alphabet = `{}[]",:0-.eE \\utfnl`
	body[rng.IntN(len(body))] = alphabet[rng.IntN(len(alphabet))]
}

func TestAppendVotesJSONMatchesMarshal(t *testing.T) {
	for _, votes := range [][]Vote{
		{},
		{{Worker: 0, I: 3, J: 7, PrefersI: true}},
		{{Worker: 12, I: 1, J: 0}, {Worker: -1, I: 1 << 40, J: -5, PrefersI: true}},
	} {
		wire := make([]refVoteJSON, len(votes))
		for i, v := range votes {
			wire[i] = refVoteJSON{Worker: v.Worker, I: v.I, J: v.J, PrefersI: v.PrefersI}
		}
		want, err := json.Marshal(refIngestRequest{Votes: wire})
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendVotesJSON(nil, votes); !bytes.Equal(got, want) {
			t.Fatalf("AppendVotesJSON = %s, json.Marshal = %s", got, want)
		}
	}
}
