package bench

// Corpus is a set of small .bench sources covering the parser's edge
// cases: s27, a lone inverter, a flip-flop fed back, a comment only, a
// wire from input to output, and gates reading one net on several pins.
// FuzzParseCombinational seeds from it, and so do the fuzz targets of
// packages that run parsed circuits.
var Corpus = []string{
	S27Source,
	"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
	"INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(y)\ny = AND(a, b)\n",
	"# only a comment\n",
	"INPUT(a)\nOUTPUT(a)\n",
	"INPUT(a)\nOUTPUT(y)\ny = XOR(a, a)\n",
	"INPUT(a)\nOUTPUT(y)\ny = AND(a,a,a,a,a,a)\n",
}
