package faultmodel

import "robustify/internal/fpu"

// Field geometry of an IEEE-754 double: bit 0 = mantissa LSB,
// bits 52–62 = exponent, bit 63 = sign.
const (
	mantissaBits = 52
	exponentBits = 11
	signBit      = 63
)

// stratified is the significance-stratified model: the same uniform-rate,
// LFSR-spaced schedule as the default injector, but with the flipped bit
// position drawn from per-field class weights instead of the emulated
// hardware histogram. It reuses the injector wholesale — only the bit
// distribution and the advertised name differ — so it inherits the
// countdown fast path and the scalar/batched equivalence proof for free.
type stratified struct {
	*fpu.Injector
}

// Name identifies the stratified model (overriding the embedded
// injector's "default").
func (s *stratified) Name() string { return Stratified }

// newStratified builds the model. Each class weight is the share of
// faults striking that field, spread uniformly over the field's bits; the
// per-bit weight is therefore class weight / class size.
func newStratified(rate float64, seed uint64, expW, mantW, signW float64) fpu.FaultModel {
	var w [fpu.WordBits]float64
	for bit := 0; bit < mantissaBits; bit++ {
		w[bit] = mantW / mantissaBits
	}
	for bit := mantissaBits; bit < signBit; bit++ {
		w[bit] = expW / exponentBits
	}
	w[signBit] = signW
	dist := fpu.NewBitDistribution("stratified", w)
	return &stratified{fpu.NewInjector(rate, seed, fpu.WithDistribution(dist))}
}
