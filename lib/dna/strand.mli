(** An immutable DNA strand, stored 2-bit packed.

    Bases are 0..3 codes packed {!bases_per_word} to a word in a flat
    int array; a strand is a (words, offset, length) view, so [sub] is
    O(1) and copy-free. Integer-coded access ([get_code],
    [unsafe_get_code]) keeps distance and alignment kernels cheap, and
    [eq_masks] is derived directly from the packed words. All
    construction validates or generates bases. *)

type t

val empty : t
val length : t -> int

val bases_per_word : int
(** Bases packed per int word of the underlying buffer (16). *)

val unsafe_of_packed : int array -> off:int -> len:int -> t
(** View over an existing packed buffer: base [i] is the 2-bit code at
    bit [((off + i) mod bases_per_word) * 2] of word
    [(off + i) / bases_per_word]. No validation and no copy — the caller
    must guarantee the codes in range never change afterwards (see
    {!Strand_pool} for the write-once arena discipline). *)

val of_string : string -> t
(** Accepts the characters A C G T (either case is normalized by the
    FASTA/FASTQ parsers before reaching here; this function itself is
    strict). Raises [Invalid_argument] on any other character. *)

val of_string_opt : string -> t option
val to_string : t -> string

val get : t -> int -> Nucleotide.t
val get_code : t -> int -> int
(** Base at an index as its 0..3 code. *)

val unsafe_get_code : t -> int -> int
(** No bounds check; for inner loops only. *)

val mask_bits : int
(** Bits per match-mask word: 63, OCaml's native int width. *)

val eq_masks : t -> int array
(** Per-base match masks for the bit-parallel (Myers) distance and
    alignment kernels:
    [ceil (length t / mask_bits)] words per base code, laid out
    base-major ([code * words + w]); bit [i] of word [w] is set when
    base [w * mask_bits + i] of the strand has that code. Built once on
    first use and cached on the strand (safe to share across domains),
    so repeated pairwise comparisons against the same strand pay the
    packing cost only once. The empty strand has an empty mask array. *)

val char_of_code : char array
(** ['A'; 'C'; 'G'; 'T'], indexed by base code. *)

val code_of_char : char -> int

val init : int -> (int -> Nucleotide.t) -> t
val init_codes : int -> (int -> int) -> t
val make : int -> Nucleotide.t -> t
val of_codes : int array -> t
val to_codes : t -> int array
val of_nucleotides : Nucleotide.t list -> t

val sub : t -> pos:int -> len:int -> t
val concat : t list -> t
val append : t -> t -> t
val rev : t -> t

val complement : t -> t
val reverse_complement : t -> t
(** The strand as read from the opposite direction (3'->5' form). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val iter : (Nucleotide.t -> unit) -> t -> unit
val fold : ('a -> Nucleotide.t -> 'a) -> 'a -> t -> 'a
val count : t -> Nucleotide.t -> int

val gc_content : t -> float
(** Fraction of G and C bases; 0 on the empty strand. *)

val max_homopolymer : t -> int
(** Length of the longest run of one repeated base. *)

val random : Rng.t -> int -> t
(** A uniform strand of the given length. *)

val find : ?from:int -> t -> pattern:t -> int option
(** Position of the first occurrence of [pattern] at or after [from]. *)

val contains : t -> pattern:t -> bool

val pp : Format.formatter -> t -> unit
